// Global (whole-function) optimizations built on the dataflow
// framework: dead-store elimination driven by cross-block liveness and
// common-subexpression elimination driven by available expressions.
// These subsume the block-local deadStores scan for cross-block cases —
// a store whose variable is overwritten in every successor path before
// any load no longer survives just because the overwrite is in another
// block.

package opt

import (
	"aviv/internal/dataflow"
	"aviv/internal/ir"
)

// globalOptimize runs the dataflow-driven passes to a fixpoint. Each
// accepted rewrite strictly shrinks the function (fewer stores, or
// fewer computation nodes at no store increase), so the loop
// terminates. Both passes rewrite block bodies but never a terminator,
// so one CFG serves every round. CSE rewrites are emitted through bb.
func globalOptimize(bb *ir.Builder, f *ir.Func) {
	g := dataflow.NewCFG(f)
	// One interner for every round: only blocks a round replaced get
	// keyed again.
	x := dataflow.NewExprs()
	for {
		changed := globalDeadStores(g)
		if globalCSE(bb, g, x) {
			changed = true
		}
		if !changed {
			return
		}
	}
}

// globalDeadStores removes stores that global liveness proves dead: the
// variable is overwritten on every path from the store before any load
// and before function exit (final memory is observable, so a value that
// can reach the exit is never dead). Reports whether anything changed.
func globalDeadStores(g *dataflow.CFG) bool {
	f := g.F
	changed := false
	for {
		live := dataflow.LivenessCFG(g)
		round := false
		for i := range f.Blocks {
			nb, pruned := live.PruneBlock(i)
			if pruned > 0 {
				f.Blocks[i] = nb
				round = true
			}
		}
		if !round {
			return changed
		}
		changed = true
		// Removing stores shrinks use sets, which can kill more stores
		// upstream; recompute liveness and go again.
	}
}

// globalCSE replaces a computation whose value is provably held in a
// memory location at block entry (available-expressions analysis) with
// a load of that location. A rewrite is only kept when it makes the
// block strictly smaller — fewer computation nodes without growing the
// node count — so bench code size can only improve.
func globalCSE(bb *ir.Builder, g *dataflow.CFG, x *dataflow.Exprs) bool {
	avail := dataflow.AvailableExprs(g, x)
	if len(avail.Facts) == 0 {
		return false
	}
	f := g.F
	changed := false
	byExpr := make(map[dataflow.ExprID]string) // expression -> smallest source var, per block
	for i, b := range f.Blocks {
		if i == 0 || !g.Reach[i] {
			continue // nothing is available at entry; skip dead islands
		}
		clear(byExpr)
		for j, fact := range avail.Facts {
			if !avail.In[i].Get(j) {
				continue
			}
			if v, ok := byExpr[fact.Expr]; !ok || fact.Var < v {
				byExpr[fact.Expr] = fact.Var
			}
		}
		if len(byExpr) == 0 {
			continue
		}
		if nb, ok := rewriteBlockCSE(bb, b, x.Block(i, b), x, byExpr); ok {
			f.Blocks[i] = nb
			changed = true
		}
	}
	return changed
}

// rewriteBlockCSE re-emits b through bb replacing eligible computations with loads
// of the memory locations known (at block entry) to hold their value.
// ids are b's expression IDs from x. It returns ok=false when no
// eligible rewrite exists or when the rewritten block is not strictly
// smaller.
func rewriteBlockCSE(bb *ir.Builder, b *ir.Block, ids []dataflow.ExprID, x *dataflow.Exprs, byExpr map[dataflow.ExprID]string) (*ir.Block, bool) {
	// firstStore[v] = node index of the first store to v in b.
	firstStore := make(map[string]int)
	for idx, n := range b.Nodes {
		if n.Op == ir.OpStore {
			if _, ok := firstStore[n.Var]; !ok {
				firstStore[n.Var] = idx
			}
		}
	}
	entryValue := func(idx int, vars []string) bool {
		// An expression over loads of vars evaluates to its entry-value
		// meaning at node position idx only if none of those variables
		// has been stored earlier in the block.
		for _, v := range vars {
			if fs, ok := firstStore[v]; ok && fs < idx {
				return false
			}
		}
		return true
	}

	// load[n.ID] names the location a computation node is replaced by.
	load := make([]string, b.IDBound())
	nRewrites := 0
	for idx, n := range b.Nodes {
		if n.Op == ir.OpConst || n.Op == ir.OpLoad || n.Op == ir.OpStore {
			continue
		}
		id := ids[n.ID]
		if id == dataflow.NoExpr {
			continue
		}
		v, ok := byExpr[id]
		if !ok {
			continue
		}
		// The node must compute over entry values, and the source
		// location must still hold its entry value at this point.
		if !entryValue(idx, x.Vars(id)) {
			continue
		}
		if fs, ok := firstStore[v]; ok && fs < idx {
			continue
		}
		load[n.ID] = v
		nRewrites++
	}
	if nRewrites == 0 {
		return nil, false
	}

	out := optimizeBlockOnce(bb, b, nil, load)
	// Accept only a strict improvement: replacing an op with a load must
	// make the op's operand subtree (partially) dead, or the rewrite
	// trades computation for memory traffic for nothing.
	if compCount(out) < compCount(b) && len(out.Nodes) < len(b.Nodes) {
		return out, true
	}
	return nil, false
}

// compCount counts computation nodes (everything that needs a
// functional unit: not a leaf, not a store).
func compCount(b *ir.Block) int {
	n := 0
	for _, nd := range b.Nodes {
		if !nd.Op.IsLeaf() && nd.Op != ir.OpStore {
			n++
		}
	}
	return n
}
