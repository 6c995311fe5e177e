// Package opt implements the machine-independent optimizations the
// paper's front end performs before retargetable code generation
// (Sec. II): constant folding, algebraic simplification, local common
// subexpression elimination, dead store and dead code elimination,
// constant branch folding, unreachable block removal, and empty-block
// jump threading. Loop unrolling lives in package lang (it is an
// AST-level transformation there).
package opt

import (
	"aviv/internal/ir"
)

// Optimize returns an optimized copy of the function. The input is not
// modified.
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
// a copy of f, re-emitting through bb: everything before the
// whole-function passes.
func optimizeLocal(bb *ir.Builder, f *ir.Func) *ir.Func {
	out := &ir.Func{Name: f.Name, Blocks: make([]*ir.Block, 0, len(f.Blocks))}
	for _, b := range f.Blocks {
		out.Blocks = append(out.Blocks, reassociateBlock(bb, optimizeBlock(bb, b)))
	}
	foldBranches(out)
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
	for i, b := range out.Blocks {
		out.Blocks[i] = reassociateBlock(bb, optimizeBlock(bb, b))
	}
	return out
}

// mergeBlocks merges a block into its jump-only successor when that
// successor has no other predecessors, growing basic blocks (and with
// them the scope of the DAG covering — bigger blocks are exactly what
// the paper's front end aims for). Merged blocks are emitted through bb.
func mergeBlocks(bb *ir.Builder, f *ir.Func) {
	for {
		preds := make(map[string]int)
		for _, b := range f.Blocks {
			for _, s := range b.Succs {
				preds[s]++
			}
		}
		merged := false
		for _, b := range f.Blocks {
			if b.Term != ir.TermJump {
				continue
			}
			succ := b.Succs[0]
			if succ == b.Name || preds[succ] != 1 {
				continue
			}
			if len(f.Blocks) > 0 && succ == f.Blocks[0].Name {
				continue // the entry block has an implicit predecessor
			}
			c := f.Block(succ)
			if c == nil {
				continue
			}
			replaceWithMerge(bb, f, b, c)
			merged = true
			break
		}
		if !merged {
			return
		}
	}
}

// replaceWithMerge re-emits b followed by c through bb as one block
// named after b, and removes c from the function.
func replaceWithMerge(bb *ir.Builder, f *ir.Func, b, c *ir.Block) {
	bb.Reset(b.Name, b, c)
	emitNodes(bb, b, nil, nil)
	newOf := emitNodes(bb, c, nil, nil)
	bb.CopyTerm(c, branchCond(c, newOf))
	nb := bb.Finish()
	for i, blk := range f.Blocks {
		if blk == b {
			f.Blocks[i] = nb
		}
	}
	for i, blk := range f.Blocks {
		if blk == c {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			break
		}
	}
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
			return bb.Const(v)
		}
	}
	if len(args) == 2 {
		if n := simplifyBinary(bb, op, args[0], args[1]); n != nil {
			return n
		}
	}
	if len(args) == 1 {
		x := args[0]
		// --x = x, ~~x = x.
		if (op == ir.OpNeg && x.Op == ir.OpNeg) || (op == ir.OpCompl && x.Op == ir.OpCompl) {
			// The arg's arg is already re-emitted (it appears earlier in
			// topological order), so it can be returned directly.
			return x.Args[0]
		}
	}
	return bb.Op(op, args...)
}

func simplifyBinary(bb *ir.Builder, op ir.Op, x, y *ir.Node) *ir.Node {
	yZero := y.Op == ir.OpConst && y.Const == 0
	yOne := y.Op == ir.OpConst && y.Const == 1
	xZero := x.Op == ir.OpConst && x.Const == 0
	xOne := x.Op == ir.OpConst && x.Const == 1
	same := x == y

	switch op {
	case ir.OpAdd:
		if yZero {
			return x
		}
		if xZero {
			return y
		}
	case ir.OpSub:
		if yZero {
			return x
		}
		if same {
			return bb.Const(0)
		}
	case ir.OpMul:
		if yOne {
			return x
		}
		if xOne {
			return y
		}
		if yZero || xZero {
			return bb.Const(0)
		}
	case ir.OpDiv:
		if yOne {
			return x
		}
	case ir.OpAnd:
		if same {
			return x
		}
		if yZero || xZero {
			return bb.Const(0)
		}
	case ir.OpOr:
		if same || yZero {
			return x
		}
		if xZero {
			return y
		}
	case ir.OpXor:
		if same {
			return bb.Const(0)
		}
		if yZero {
			return x
		}
		if xZero {
			return y
		}
	case ir.OpShl, ir.OpShr:
		if yZero {
			return x
		}
	case ir.OpCmpEQ:
		if same {
			return bb.Const(1)
		}
	case ir.OpCmpNE:
		if same {
			return bb.Const(0)
		}
	case ir.OpCmpLE, ir.OpCmpGE:
		if same {
			return bb.Const(1)
		}
	case ir.OpCmpLT, ir.OpCmpGT:
		if same {
			return bb.Const(0)
		}
	}
	return nil
}

// foldBranches turns branches on constants into jumps.
func foldBranches(f *ir.Func) {
	for _, b := range f.Blocks {
		if b.Term != ir.TermBranch || b.Cond == nil || b.Cond.Op != ir.OpConst {
			continue
		}
		target := b.Succs[0]
		if b.Cond.Const == 0 {
			target = b.Succs[1]
		}
		b.Term = ir.TermJump
		b.Cond = nil
		b.Succs = []string{target}
		b.RemoveDead()
	}
}

// threadJumps redirects edges that land on empty jump-only blocks.
func threadJumps(f *ir.Func) {
	target := make(map[string]string)
	for _, b := range f.Blocks {
		if len(b.Nodes) == 0 && b.Term == ir.TermJump {
			target[b.Name] = b.Succs[0]
		}
	}
	resolve := func(name string) string {
		seen := map[string]bool{}
		for {
			next, ok := target[name]
			if !ok || seen[name] {
				return name
			}
			seen[name] = true
			name = next
		}
	}
	// An empty entry block is kept even when it threads away (it is still
	// the entry point); removeUnreachable drops the bypassed blocks.
	for _, b := range f.Blocks {
		for i, s := range b.Succs {
			b.Succs[i] = resolve(s)
		}
	}
}

// removeUnreachable drops blocks that no path from the entry reaches.
func removeUnreachable(f *ir.Func) {
	if len(f.Blocks) == 0 {
		return
	}
	reach := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if reach[name] {
			return
		}
		reach[name] = true
		if b := f.Block(name); b != nil {
			for _, s := range b.Succs {
				visit(s)
			}
		}
	}
	visit(f.Blocks[0].Name)
	var kept []*ir.Block
	for _, b := range f.Blocks {
		if reach[b.Name] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
}
