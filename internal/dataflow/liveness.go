package dataflow

import (
	"aviv/internal/bitset"
	"aviv/internal/ir"
)

// LivenessResult holds the per-block live-variable sets. A memory
// variable is live at a program point when some execution path from
// that point reads it before overwriting it — or reaches the end of the
// function, because final data memory is the observable output of a
// compiled program (the difftest harness compares every cell against
// the reference interpreter), so *every* variable is live at exit.
type LivenessResult struct {
	G *CFG
	// Vars is the fact universe in VarID order: the function's variables
	// sorted by name from Liveness and LivenessCFG, in first-appearance
	// order from a State kept across passes.
	Vars []string
	// In and Out are live-in/live-out per block, bits indexed by Vars.
	In, Out []bitset.Set

	s *State
}

// Liveness computes global liveness of memory variables for f over the
// full (unfolded) CFG.
func Liveness(f *ir.Func) *LivenessResult { return LivenessCFG(NewCFG(f)) }

// LivenessCFG computes liveness over a prebuilt CFG.
func LivenessCFG(g *CFG) *LivenessResult { return oneShot(g).Liveness() }

// Liveness computes liveness over s's function as it is now. The sets
// of a block's upward-exposed uses (variables read before any store in
// the block) and definitions (variables stored) come from its summary.
// The universe is every variable s has numbered, but only those some
// block still loads or stores are live at exit: a variable the passes
// removed from the function is live nowhere, as in a fresh analysis.
func (s *State) Liveness() *LivenessResult {
	s.refresh()
	nv := s.X.NumVars()
	n := len(s.sums)
	sets := make([]bitset.Set, 2*n)
	p := Problem{
		Dir:  Backward,
		Meet: Union,
		Bits: nv,
		Gen:  sets[:n:n],
		Kill: sets[n:],
	}
	for i := range s.sums {
		p.Gen[i] = s.sums[i].use
		p.Kill[i] = s.sums[i].def
	}
	// Function exit observes all of memory.
	p.Boundary = bitset.New(nv)
	for i := range s.sums {
		p.Boundary.Or(p.Boundary, s.sums[i].mem)
	}
	facts := Solve(s.G, p)
	return &LivenessResult{G: s.G, Vars: s.X.vars[:nv:nv], In: facts.In, Out: facts.Out, s: s}
}

// LiveOutOf reports whether v is live at the exit of block i.
func (r *LivenessResult) LiveOutOf(i int, v string) bool {
	j, ok := r.s.X.lookupVar(v)
	if !ok || int(j) >= len(r.Vars) {
		return false
	}
	return r.Out[i].Get(int(j))
}

// LiveInOf reports whether v is live at the entry of block i.
func (r *LivenessResult) LiveInOf(i int, v string) bool {
	j, ok := r.s.X.lookupVar(v)
	if !ok || int(j) >= len(r.Vars) {
		return false
	}
	return r.In[i].Get(int(j))
}

// OutSets materializes the live-out sets as one map per block, indexed
// like F.Blocks — the form cover.Options.LiveOut and the verifier's
// cross-checks consume.
func (r *LivenessResult) OutSets() []map[string]bool {
	out := make([]map[string]bool, len(r.Out))
	for i := range r.Out {
		m := make(map[string]bool, len(r.Vars))
		for j, v := range r.Vars {
			if r.Out[i].Get(j) {
				m[v] = true
			}
		}
		out[i] = m
	}
	return out
}

// DeadStores returns the indices into b.Nodes of stores that are dead
// given the block's live-out set: on every path from the store, the
// variable is overwritten before being read and before function exit.
// The scan walks execution order backward, so a store shadowed by a
// later store in the same block is found without any CFG work, and
// cascades (several dead stores to one variable) fall out naturally.
//
// liveOut == nil means every variable is live at exit (the pessimistic
// assumption), under which only locally-shadowed stores are dead.
func DeadStores(b *ir.Block, liveOut map[string]bool) map[int]bool {
	_, refs, live := blockLiveOut(b, liveOut)
	dead := make(map[int]bool)
	for i, d := range deadStoreScan(b, live, refs) {
		if d {
			dead[i] = true
		}
	}
	return dead
}

// blockLiveOut numbers the variables b reads or writes in a fresh
// Exprs and returns it, b's memory accesses, and the bit set of those
// variables live under liveOut (all of them when liveOut is nil).
// Variables b never touches cannot affect its dead stores.
func blockLiveOut(b *ir.Block, liveOut map[string]bool) (*Exprs, []memRef, bitset.Set) {
	x := newExprs(0, 0)
	refs := x.memRefs(b, b.LiveByID(nil), nil)
	live := bitset.New(x.NumVars())
	for j, v := range x.vars {
		if liveOut == nil || liveOut[v] {
			live.Set(j)
		}
	}
	return x, refs, live
}

// deadStoreScan is the backward scan behind DeadStores and both
// PruneBlock forms. live holds the variables live at the block's exit,
// bits indexed by VarID; refs are b's memory accesses. The scan
// consumes live. It returns a mark per position in b.Nodes, or nil
// when no store is dead.
func deadStoreScan(b *ir.Block, live bitset.Set, refs []memRef) []bool {
	var dead []bool
	for k := len(refs) - 1; k >= 0; k-- {
		r := refs[k]
		switch {
		case !r.store:
			live.Set(int(r.v))
		case live.Get(int(r.v)):
			live.Clear(int(r.v))
		default:
			if dead == nil {
				dead = make([]bool, len(b.Nodes))
			}
			dead[r.pos] = true
		}
	}
	return dead
}
