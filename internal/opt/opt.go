// Package opt implements the machine-independent optimizations the
// paper's front end performs before retargetable code generation
// (Sec. II): constant folding, algebraic simplification, local common
// subexpression elimination, dead store and dead code elimination,
// constant branch folding, unreachable block removal, and empty-block
// jump threading. Loop unrolling lives in package lang (it is an
// AST-level transformation there).
package opt

import (
	"slices"

	"aviv/internal/ir"
)

// Optimize returns an optimized copy of the function. The input is not
// modified, but the result may share blocks with it: a block that no
// pass changes is returned as it came, and a block whose only change is
// a retargeted edge shares the input's nodes. No pass writes into a
// block it did not emit, and neither function may be edited in place
// afterwards.
func Optimize(f *ir.Func) *ir.Func {
	// One builder re-emits every block of every pass: each re-emission
	// resets it, so its hash-consing maps are allocated once per call.
	bb := ir.NewBuilder("")
	out := optimizeLocal(bb, f)
	// Whole-function passes over the dataflow framework: cross-block
	// dead-store elimination and common-subexpression elimination.
	globalOptimize(bb, out)
	return out
}

// optimizeLocal runs Optimize's block-local and control-flow passes on
// a copy of f, re-emitting through bb the blocks a local pass changes:
// everything before the whole-function passes. The passes' checks share
// one scratch, as the re-emissions share bb.
func optimizeLocal(bb *ir.Builder, f *ir.Func) *ir.Func {
	c := newCheck()
	out := &ir.Func{Name: f.Name, Blocks: make([]*ir.Block, 0, len(f.Blocks))}
	for _, b := range f.Blocks {
		out.Blocks = append(out.Blocks, localPass(bb, c, b))
	}
	foldBranches(bb, out)
	threadJumps(out)
	removeUnreachable(out)
	mergeBlocks(bb, out)
	// Merging exposes new local folding (stores feeding loads across the
	// former block boundary) and new chains; one more pass picks them up.
	// It runs on every block, not only merged ones: optimizeBlock after
	// reassociateBlock is not idempotent. Rebalancing a chain can pair
	// constants that only the next folding pass combines (the first pass
	// leaves x * (-3 * -2), the second x * 6), and re-emitting the
	// reordered nodes can flip commutative operands into another
	// canonical order (TestSecondLocalPassOnUnmergedBlocks).
	//
	// A block that is still one of f's came through the first pass
	// unchanged and no control-flow pass replaced it, so the second
	// pass's checks would say so again. The passes keep the blocks' order
	// and names, so one cursor over f finds each block's origin.
	k := 0
	for i, b := range out.Blocks {
		for k < len(f.Blocks) && f.Blocks[k].Name != b.Name {
			k++
		}
		if k < len(f.Blocks) && f.Blocks[k] == b {
			continue
		}
		out.Blocks[i] = localPass(bb, c, b)
	}
	return out
}

// localPass runs optimizeBlock and then reassociateBlock on b. Each
// re-emits only when c says it would change the block; otherwise its
// input is passed on as it is.
func localPass(bb *ir.Builder, c *check, b *ir.Block) *ir.Block {
	if !c.foldsNothing(b) || deadStores(b) != nil {
		b = optimizeBlock(bb, b)
	}
	if !c.rebalancesNothing(b) {
		b = reassociateBlock(bb, b)
	}
	return b
}

// blockIndex maps each block name of f to the block's position. Block
// names are unique within a function (Func.Verify).
func blockIndex(f *ir.Func) map[string]int {
	at := make(map[string]int, len(f.Blocks))
	for i, b := range f.Blocks {
		at[b.Name] = i
	}
	return at
}

// mergeBlocks merges a block into its jump-only successor when that
// successor has no other predecessors, growing basic blocks (and with
// them the scope of the DAG covering — bigger blocks are exactly what
// the paper's front end aims for). Merged blocks are emitted through bb.
//
// Blocks are merged in order, each as often as it can be, which is the
// order of always merging the first mergeable block: a merge moves the
// successor's edges to the merged block unchanged, so no predecessor
// count changes and a block that could not merge before still cannot.
// The counts are taken once, and a merged-away successor leaves a nil
// at its position until the end.
func mergeBlocks(bb *ir.Builder, f *ir.Func) {
	at := blockIndex(f)
	preds := make([]int, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if j, ok := at[s]; ok {
				preds[j]++
			}
		}
	}
	merged := false
	for i := range f.Blocks {
		for {
			b := f.Blocks[i]
			if b == nil || b.Term != ir.TermJump {
				break
			}
			// The entry block (position 0) has an implicit predecessor.
			j, ok := at[b.Succs[0]]
			if !ok || j == i || j == 0 || preds[j] != 1 || f.Blocks[j] == nil {
				break
			}
			f.Blocks[i] = mergePair(bb, b, f.Blocks[j])
			f.Blocks[j] = nil
			merged = true
		}
	}
	if merged {
		f.Blocks = slices.DeleteFunc(f.Blocks, func(b *ir.Block) bool { return b == nil })
	}
}

// mergePair re-emits b followed by c through bb as one block named after
// b, ending as c ends.
func mergePair(bb *ir.Builder, b, c *ir.Block) *ir.Block {
	bb.Reset(b.Name, b, c)
	emitNodes(bb, b, nil, nil)
	newOf := emitNodes(bb, c, nil, nil)
	bb.CopyTerm(c, branchCond(c, newOf))
	return bb.Finish()
}

// optimizeBlock re-emits the block through bb until no
// dead stores remain. A single re-emission is not enough: deadStores is
// computed on the input block, where a load between two stores of the
// same variable keeps the first store alive even when that load only
// feeds a store that is itself dead — and once the dead consumer is
// dropped and the load forwarded away, the first store is exposed as
// dead too. Each round removes at least one store, so the loop
// terminates.
func optimizeBlock(bb *ir.Builder, b *ir.Block) *ir.Block {
	dead := deadStores(b)
	for {
		nb := optimizeBlockOnce(bb, b, dead, nil)
		if dead = deadStores(nb); len(dead) == 0 {
			return nb
		}
		b = nb
	}
}

// optimizeBlockOnce re-emits the block through bb, reset for it
// (emitNodes), applying constant folding and algebraic simplification
// per node; the builder's hash-consing provides CSE and Finish removes
// dead code. The stores marked in dead are dropped, and a node with a
// load[n.ID] entry is replaced by a load of that location.
func optimizeBlockOnce(bb *ir.Builder, b *ir.Block, dead map[int]bool, load []string) *ir.Block {
	bb.Reset(b.Name, b)
	newOf := emitNodes(bb, b, dead, load)
	bb.CopyTerm(b, branchCond(b, newOf))
	return bb.Finish()
}

// emitNodes re-emits b's nodes into bb in order, with emitSimplified
// folding each computation, and returns the new nodes indexed by the
// old Node.ID (IDs are unique only within one block). The stores at the
// positions in b.Nodes that dead marks are dropped, and node n is
// replaced by a load of load[n.ID] when that entry is set; either may
// be nil.
func emitNodes(bb *ir.Builder, b *ir.Block, dead map[int]bool, load []string) []*ir.Node {
	newOf := make([]*ir.Node, b.IDBound())
	for i, n := range b.Nodes {
		switch {
		case load != nil && load[n.ID] != "":
			newOf[n.ID] = bb.Load(load[n.ID])
		case n.Op == ir.OpConst:
			newOf[n.ID] = bb.Const(n.Const)
		case n.Op == ir.OpLoad:
			newOf[n.ID] = bb.Load(n.Var)
		case n.Op == ir.OpStore:
			if !dead[i] {
				bb.Store(n.Var, newOf[n.Args[0].ID])
			}
		default:
			var buf [2]*ir.Node
			args := buf[:0]
			for _, a := range n.Args {
				args = append(args, newOf[a.ID])
			}
			newOf[n.ID] = emitSimplified(bb, n.Op, args)
		}
	}
	return newOf
}

// branchCond returns the re-emitted condition of b's branch from newOf
// (emitNodes's result for b), or nil when b does not branch.
func branchCond(b *ir.Block, newOf []*ir.Node) *ir.Node {
	if b.Term != ir.TermBranch {
		return nil
	}
	return newOf[b.Cond.ID]
}

// deadStores marks stores that are overwritten later in the same block
// with no intervening load of the variable. It returns nil when there
// are none.
func deadStores(b *ir.Block) map[int]bool {
	var dead map[int]bool
	for i, n := range b.Nodes {
		if n.Op != ir.OpStore {
			continue
		}
		for j := i + 1; j < len(b.Nodes); j++ {
			m := b.Nodes[j]
			if m.Op == ir.OpLoad && m.Var == n.Var {
				break
			}
			if m.Op == ir.OpStore && m.Var == n.Var {
				if dead == nil {
					dead = make(map[int]bool)
				}
				dead[i] = true
				break
			}
		}
	}
	return dead
}

// emitSimplified emits op over args with constant folding and algebraic
// identities applied.
func emitSimplified(bb *ir.Builder, op ir.Op, args []*ir.Node) *ir.Node {
	switch r, v := simplify(op, args); r {
	case toConst:
		return bb.Const(v)
	case toX:
		return args[0]
	case toY:
		return args[1]
	case toInner:
		// The arg's arg is already re-emitted (it appears earlier in
		// topological order), so it can be returned directly.
		return args[0].Args[0]
	}
	return bb.Op(op, args...)
}

// rule is what simplify makes of one computation.
type rule uint8

const (
	keep    rule = iota // emit the operation as it is
	toConst             // a constant (simplify's value)
	toX                 // the first operand
	toY                 // the second operand
	toInner             // the first operand's operand: --x = x, ~~x = x
)

// simplify returns the rule emitSimplified applies to op over args, and
// the constant's value for toConst. It is the one statement of the
// folding and algebraic rules: the emitter and the check's foldsNothing
// both call it.
func simplify(op ir.Op, args []*ir.Node) (rule, int64) {
	// Full constant folding (skipping division by zero, which must keep
	// its runtime behaviour).
	allConst := true
	var buf [2]int64
	vals := buf[:0]
	for _, a := range args {
		if a.Op != ir.OpConst {
			allConst = false
			break
		}
		vals = append(vals, a.Const)
	}
	if allConst {
		if v, err := ir.EvalOp(op, vals...); err == nil {
			return toConst, v
		}
	}
	switch len(args) {
	case 2:
		return simplifyBinary(op, args[0], args[1])
	case 1:
		if x := args[0]; (op == ir.OpNeg && x.Op == ir.OpNeg) || (op == ir.OpCompl && x.Op == ir.OpCompl) {
			return toInner, 0
		}
	}
	return keep, 0
}

func simplifyBinary(op ir.Op, x, y *ir.Node) (rule, int64) {
	yZero := y.Op == ir.OpConst && y.Const == 0
	yOne := y.Op == ir.OpConst && y.Const == 1
	xZero := x.Op == ir.OpConst && x.Const == 0
	xOne := x.Op == ir.OpConst && x.Const == 1
	same := x == y

	switch op {
	case ir.OpAdd:
		if yZero {
			return toX, 0
		}
		if xZero {
			return toY, 0
		}
	case ir.OpSub:
		if yZero {
			return toX, 0
		}
		if same {
			return toConst, 0
		}
	case ir.OpMul:
		if yOne {
			return toX, 0
		}
		if xOne {
			return toY, 0
		}
		if yZero || xZero {
			return toConst, 0
		}
	case ir.OpDiv:
		if yOne {
			return toX, 0
		}
	case ir.OpAnd:
		if same {
			return toX, 0
		}
		if yZero || xZero {
			return toConst, 0
		}
	case ir.OpOr:
		if same || yZero {
			return toX, 0
		}
		if xZero {
			return toY, 0
		}
	case ir.OpXor:
		if same {
			return toConst, 0
		}
		if yZero {
			return toX, 0
		}
		if xZero {
			return toY, 0
		}
	case ir.OpShl, ir.OpShr:
		if yZero {
			return toX, 0
		}
	case ir.OpCmpEQ:
		if same {
			return toConst, 1
		}
	case ir.OpCmpNE:
		if same {
			return toConst, 0
		}
	case ir.OpCmpLE, ir.OpCmpGE:
		if same {
			return toConst, 1
		}
	case ir.OpCmpLT, ir.OpCmpGT:
		if same {
			return toConst, 0
		}
	}
	return keep, 0
}

// foldBranches turns branches on constants into jumps. The jump block
// is a copy of b made through bb, not b edited: b may be a block of
// Optimize's input, and dropping the dead condition renumbers nodes.
func foldBranches(bb *ir.Builder, f *ir.Func) {
	for i, b := range f.Blocks {
		if b.Term != ir.TermBranch || b.Cond == nil || b.Cond.Op != ir.OpConst {
			continue
		}
		target := b.Succs[0]
		if b.Cond.Const == 0 {
			target = b.Succs[1]
		}
		bb.Reset(b.Name, b)
		newOf := make([]*ir.Node, b.IDBound())
		for _, n := range b.Nodes {
			var buf [2]*ir.Node
			args := buf[:0]
			for _, a := range n.Args {
				args = append(args, newOf[a.ID])
			}
			nn := bb.Block.NewNode(n.Op, args...)
			nn.Const, nn.Var = n.Const, n.Var
			newOf[n.ID] = nn
		}
		bb.Jump(target)
		f.Blocks[i] = bb.Finish()
	}
}

// threadJumps redirects edges that land on empty jump-only blocks. A
// retargeted block is replaced by a copy of its header with fresh
// successors (ir.Block.WithSuccs): the block itself may be shared with
// Optimize's input, and edges still resolve through the blocks as they
// were.
func threadJumps(f *ir.Func) {
	at := blockIndex(f)
	old := slices.Clone(f.Blocks)
	// seen[j] == pass while resolving an edge: block j is on its path
	// already, so the path has come round a cycle.
	seen := make([]int, len(old))
	pass := 0
	resolve := func(name string) string {
		pass++
		for {
			j, ok := at[name]
			if !ok || seen[j] == pass || len(old[j].Nodes) != 0 || old[j].Term != ir.TermJump {
				return name
			}
			seen[j] = pass
			name = old[j].Succs[0]
		}
	}
	// An empty entry block is kept even when it threads away (it is still
	// the entry point); removeUnreachable drops the bypassed blocks.
	for i, b := range old {
		var succs []string
		for k, s := range b.Succs {
			t := resolve(s)
			if t == s {
				continue
			}
			if succs == nil {
				succs = slices.Clone(b.Succs)
			}
			succs[k] = t
		}
		if succs != nil {
			f.Blocks[i] = b.WithSuccs(succs)
		}
	}
}

// removeUnreachable drops blocks that no path from the entry reaches.
func removeUnreachable(f *ir.Func) {
	if len(f.Blocks) == 0 {
		return
	}
	at := blockIndex(f)
	reach := make([]bool, len(f.Blocks))
	reach[0] = true
	stack := append(make([]int, 0, len(f.Blocks)), 0) // each block is pushed once
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Blocks[i].Succs {
			if j, ok := at[s]; ok && !reach[j] {
				reach[j] = true
				stack = append(stack, j)
			}
		}
	}
	kept := f.Blocks[:0]
	for i, b := range f.Blocks {
		if reach[i] {
			kept = append(kept, b)
		}
	}
	clear(f.Blocks[len(kept):])
	f.Blocks = kept
}
