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
	out := optimizeLocal(f)
	// Whole-function passes over the dataflow framework: cross-block
	// dead-store elimination and common-subexpression elimination.
	globalOptimize(out)
	return out
}

// optimizeLocal runs Optimize's block-local and control-flow passes on
// a copy of f: everything before the whole-function passes.
func optimizeLocal(f *ir.Func) *ir.Func {
	out := &ir.Func{Name: f.Name}
	for _, b := range f.Blocks {
		out.Blocks = append(out.Blocks, reassociateBlock(optimizeBlock(b)))
	}
	foldBranches(out)
	threadJumps(out)
	removeUnreachable(out)
	mergeBlocks(out)
	// Merging exposes new local folding (stores feeding loads across the
	// former block boundary) and new chains; one more pass picks them up.
	// It runs on every block, not only merged ones: optimizeBlock after
	// reassociateBlock is not idempotent. Rebalancing a chain can pair
	// constants that only the next folding pass combines (the first pass
	// leaves x * (-3 * -2), the second x * 6), and re-emitting the
	// reordered nodes can flip commutative operands into another
	// canonical order (TestSecondLocalPassOnUnmergedBlocks).
	for i, b := range out.Blocks {
		out.Blocks[i] = reassociateBlock(optimizeBlock(b))
	}
	return out
}

// mergeBlocks merges a block into its jump-only successor when that
// successor has no other predecessors, growing basic blocks (and with
// them the scope of the DAG covering — bigger blocks are exactly what
// the paper's front end aims for).
func mergeBlocks(f *ir.Func) {
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
			replaceWithMerge(f, b, c)
			merged = true
			break
		}
		if !merged {
			return
		}
	}
}

// replaceWithMerge re-emits b followed by c as one block named after b,
// and removes c from the function.
func replaceWithMerge(f *ir.Func, b, c *ir.Block) {
	bb := ir.NewBuilder(b.Name)
	// emit re-emits blk and returns its new nodes, indexed by the old
	// Node.ID (IDs are unique only within one block).
	emit := func(blk *ir.Block) []*ir.Node {
		newOf := make([]*ir.Node, blk.IDBound())
		for _, n := range blk.Nodes {
			switch n.Op {
			case ir.OpConst:
				newOf[n.ID] = bb.Const(n.Const)
			case ir.OpLoad:
				newOf[n.ID] = bb.Load(n.Var)
			case ir.OpStore:
				bb.Store(n.Var, newOf[n.Args[0].ID])
			default:
				args := make([]*ir.Node, len(n.Args))
				for j, a := range n.Args {
					args[j] = newOf[a.ID]
				}
				newOf[n.ID] = emitSimplified(bb, n.Op, args)
			}
		}
		return newOf
	}
	emit(b)
	newOf := emit(c)
	switch c.Term {
	case ir.TermBranch:
		bb.Branch(newOf[c.Cond.ID], c.Succs[0], c.Succs[1])
	case ir.TermJump:
		bb.Jump(c.Succs[0])
	case ir.TermReturn:
		bb.Return()
	default:
		bb.Block.Term = c.Term
		bb.Block.Succs = append([]string(nil), c.Succs...)
	}
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

// optimizeBlock re-emits the block through a fresh builder until no
// dead stores remain. A single re-emission is not enough: deadStores is
// computed on the input block, where a load between two stores of the
// same variable keeps the first store alive even when that load only
// feeds a store that is itself dead — and once the dead consumer is
// dropped and the load forwarded away, the first store is exposed as
// dead too. Each round removes at least one store, so the loop
// terminates.
func optimizeBlock(b *ir.Block) *ir.Block {
	dead := deadStores(b)
	for {
		nb := optimizeBlockOnce(b, dead)
		if dead = deadStores(nb); len(dead) == 0 {
			return nb
		}
		b = nb
	}
}

// optimizeBlockOnce re-emits the block through a fresh builder, applying
// constant folding and algebraic simplification per node; the builder's
// hash-consing provides CSE and Finish removes dead code. The stores
// marked in dead (deadStores(b): overwritten within the block with no
// intervening load) are dropped.
func optimizeBlockOnce(b *ir.Block, dead map[int]bool) *ir.Block {
	bb := ir.NewBuilder(b.Name)
	newOf := make([]*ir.Node, b.IDBound())
	for i, n := range b.Nodes {
		switch n.Op {
		case ir.OpConst:
			newOf[n.ID] = bb.Const(n.Const)
		case ir.OpLoad:
			newOf[n.ID] = bb.Load(n.Var)
		case ir.OpStore:
			if dead[i] {
				continue
			}
			bb.Store(n.Var, newOf[n.Args[0].ID])
		default:
			args := make([]*ir.Node, len(n.Args))
			for j, a := range n.Args {
				args[j] = newOf[a.ID]
			}
			newOf[n.ID] = emitSimplified(bb, n.Op, args)
		}
	}
	switch b.Term {
	case ir.TermBranch:
		bb.Branch(newOf[b.Cond.ID], b.Succs[0], b.Succs[1])
	case ir.TermJump:
		bb.Jump(b.Succs[0])
	case ir.TermReturn:
		bb.Return()
	default:
		bb.Block.Term = b.Term
		bb.Block.Succs = append([]string(nil), b.Succs...)
	}
	return bb.Finish()
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
	vals := make([]int64, len(args))
	for i, a := range args {
		if a.Op != ir.OpConst {
			allConst = false
			break
		}
		vals[i] = a.Const
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
