package dataflow

import (
	"aviv/internal/bitset"
	"aviv/internal/ir"
)

// PruneBlock returns a copy of b with every store that is dead under
// liveOut removed (plus any nodes that die with them), and the number
// of stores pruned. When nothing is dead it returns b unchanged. The
// clone is a pure structural copy — no folding or re-association — so
// an independent checker can recompute it exactly (verify.CheckPrune).
//
// Removing a dead store can orphan a load that only fed it, which in
// turn can expose the previous store of that variable as dead, so the
// scan iterates to a fixpoint; each round removes at least one store.
func PruneBlock(b *ir.Block, liveOut map[string]bool) (*ir.Block, int) {
	idx, live := blockLiveOut(b, liveOut)
	return pruneBlock(b, live, idx)
}

// PruneBlock is the package-level PruneBlock for block i of the analysed
// function, reading its live-out set straight from r.Out[i]: the same
// result as PruneBlock(b, r.OutSets()[i]), with no map per block.
func (r *LivenessResult) PruneBlock(i int) (*ir.Block, int) {
	return pruneBlock(r.G.F.Blocks[i], r.Out[i], r.varIndex)
}

// pruneBlock iterates deadStoreScan to a fixpoint from the live-out set
// liveOut, bits indexed by idx; liveOut itself is not modified.
func pruneBlock(b *ir.Block, liveOut bitset.Set, idx map[string]int) (*ir.Block, int) {
	pruned := 0
	live := bitset.New(len(idx))
	for {
		copy(live, liveOut)
		dead := deadStoreScan(b, live, idx)
		if dead == nil {
			return b, pruned
		}
		b = cloneBlockSkipping(b, dead)
		for _, d := range dead {
			if d {
				pruned++
			}
		}
	}
}

// cloneBlockSkipping deep-copies b without the nodes marked in skip
// (indexed like b.Nodes), then drops anything unreachable from the new
// block's roots.
func cloneBlockSkipping(b *ir.Block, skip []bool) *ir.Block {
	nb := ir.NewBlock(b.Name)
	newOf := make([]*ir.Node, b.IDBound())
	for i, n := range b.Nodes {
		if skip[i] {
			continue
		}
		var buf [2]*ir.Node
		args := buf[:0]
		ok := true
		for _, a := range n.Args {
			var na *ir.Node
			if a.ID < len(newOf) {
				na = newOf[a.ID]
			}
			if na == nil {
				ok = false // operand was skipped; node dies with it
				break
			}
			args = append(args, na)
		}
		if !ok {
			continue
		}
		var c *ir.Node
		switch n.Op {
		case ir.OpConst:
			c = nb.NewConst(n.Const)
		case ir.OpLoad:
			c = nb.NewLoad(n.Var)
		case ir.OpStore:
			c = nb.NewStore(n.Var, args[0])
		default:
			c = nb.NewNode(n.Op, args...)
		}
		newOf[n.ID] = c
	}
	nb.Term = b.Term
	nb.Succs = append([]string(nil), b.Succs...)
	if b.Cond != nil && b.Cond.ID < len(newOf) {
		nb.Cond = newOf[b.Cond.ID]
	}
	nb.RemoveDead()
	return nb
}
