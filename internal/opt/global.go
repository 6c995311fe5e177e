// Global (whole-function) optimizations built on the dataflow
// framework: dead-store elimination driven by cross-block liveness and
// common-subexpression elimination driven by available expressions.
// These subsume the block-local deadStores scan for cross-block cases —
// a store whose variable is overwritten in every successor path before
// any load no longer survives just because the overwrite is in another
// block.

package opt

import (
	"slices"

	"aviv/internal/dataflow"
	"aviv/internal/ir"
)

// globalOptimize runs the dataflow-driven passes to a fixpoint. Each
// accepted rewrite strictly shrinks the function (fewer stores, or
// fewer computation nodes at no store increase), so the loop
// terminates. CSE rewrites are emitted through bb.
func globalOptimize(bb *ir.Builder, f *ir.Func) {
	g := newGlobal(f)
	for g.round(bb) {
	}
}

// global is the state globalOptimize keeps between rounds: one
// dataflow.State (both passes rewrite block bodies but never a
// terminator, so one CFG serves every round, and only the blocks a
// round replaced are summarized again) and the CSE rewrite's scratch.
type global struct {
	s *dataflow.State
	// src[e] is the variable a CSE rewrite loads expression e from in the
	// block being rewritten, or NoVar; it is all NoVar between blocks.
	src        []dataflow.VarID
	firstStore []int32
	load       []string
}

func newGlobal(f *ir.Func) *global {
	return &global{s: dataflow.NewState(dataflow.NewCFG(f))}
}

// round runs dead-store elimination and then CSE once and reports
// whether either changed the function.
func (g *global) round(bb *ir.Builder) bool {
	changed := globalDeadStores(g.s)
	if g.cse(bb) {
		changed = true
	}
	return changed
}

// globalDeadStores removes stores that global liveness proves dead: the
// variable is overwritten on every path from the store before any load
// and before function exit (final memory is observable, so a value that
// can reach the exit is never dead). Reports whether anything changed.
func globalDeadStores(s *dataflow.State) bool {
	f := s.G.F
	changed := false
	for {
		live := s.Liveness()
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

// cse replaces a computation whose value is provably held in a memory
// location at block entry (available-expressions analysis) with a load
// of that location. When several locations hold it, the one with the
// smallest name is loaded. A rewrite is only kept when it makes the
// block strictly smaller — fewer computation nodes without growing the
// node count — so bench code size can only improve.
func (g *global) cse(bb *ir.Builder) bool {
	avail := g.s.Available()
	if len(avail.Facts) == 0 {
		return false
	}
	x := avail.X
	for len(g.src) < x.Len() {
		g.src = append(g.src, dataflow.NoVar)
	}
	f := g.s.G.F
	changed := false
	for i, b := range f.Blocks {
		if i == 0 || !g.s.G.Reach[i] {
			continue // nothing is available at entry; skip dead islands
		}
		found := false
		for j, fact := range avail.Facts {
			if !avail.In[i].Get(j) {
				continue
			}
			if v := g.src[fact.Expr]; v == dataflow.NoVar || x.VarName(fact.Var) < x.VarName(v) {
				g.src[fact.Expr] = fact.Var
			}
			found = true
		}
		if !found {
			continue
		}
		if nb, ok := g.rewriteBlock(bb, i, b); ok {
			f.Blocks[i] = nb
			changed = true
		}
		for j, fact := range avail.Facts {
			if avail.In[i].Get(j) {
				g.src[fact.Expr] = dataflow.NoVar
			}
		}
	}
	return changed
}

// rewriteBlock re-emits block i, b, through bb replacing eligible
// computations with loads of the memory locations g.src names. It
// returns ok=false when no eligible rewrite exists or when the
// rewritten block is not strictly smaller.
func (g *global) rewriteBlock(bb *ir.Builder, i int, b *ir.Block) (*ir.Block, bool) {
	x := g.s.X
	ids := g.s.ExprIDs(i)
	g.firstStore = g.s.FirstStores(i, g.firstStore)
	// storedBefore reports whether v has been stored earlier in the
	// block than node position idx.
	storedBefore := func(v dataflow.VarID, idx int) bool {
		fs := g.firstStore[v]
		return fs >= 0 && int(fs) < idx
	}

	// load[n.ID] names the location a computation node is replaced by.
	g.load = append(g.load[:0], make([]string, b.IDBound())...)
	nRewrites := 0
	for idx, n := range b.Nodes {
		if n.Op == ir.OpConst || n.Op == ir.OpLoad || n.Op == ir.OpStore {
			continue
		}
		id := ids[n.ID]
		if id == dataflow.NoExpr {
			continue
		}
		v := g.src[id]
		if v == dataflow.NoVar {
			continue
		}
		// The node must compute over entry values — none of the
		// variables it reads has been stored earlier in the block — and
		// the source location must still hold its entry value here.
		if slices.ContainsFunc(x.Vars(id), func(u dataflow.VarID) bool { return storedBefore(u, idx) }) ||
			storedBefore(v, idx) {
			continue
		}
		g.load[n.ID] = x.VarName(v)
		nRewrites++
	}
	if nRewrites == 0 {
		return nil, false
	}

	out := optimizeBlockOnce(bb, b, nil, g.load)
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
