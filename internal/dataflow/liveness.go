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
	G    *CFG
	Vars []string // sorted fact universe
	// In and Out are live-in/live-out per block, bits indexed by Vars.
	In, Out []bitset.Set

	varIndex map[string]int
}

// Liveness computes global liveness of memory variables for f over the
// full (unfolded) CFG.
func Liveness(f *ir.Func) *LivenessResult { return LivenessCFG(NewCFG(f)) }

// LivenessCFG computes liveness over a prebuilt CFG.
func LivenessCFG(g *CFG) *LivenessResult {
	vars := g.Vars()
	idx := make(map[string]int, len(vars))
	for i, v := range vars {
		idx[v] = i
	}
	n := len(g.F.Blocks)
	p := Problem{
		Dir:  Backward,
		Meet: Union,
		Bits: len(vars),
		Gen:  make([]bitset.Set, n),
		Kill: make([]bitset.Set, n),
	}
	for i, b := range g.F.Blocks {
		use, def := blockUseDef(b, idx)
		p.Gen[i] = use
		p.Kill[i] = def
	}
	// Function exit observes all of memory.
	p.Boundary = full(len(vars))
	facts := Solve(g, p)
	return &LivenessResult{G: g, Vars: vars, In: facts.In, Out: facts.Out, varIndex: idx}
}

// blockUseDef scans the block in execution order and returns its
// upward-exposed uses (variables read before any store in the block)
// and its definitions (variables stored). Loads not reachable from a
// root are dead code and do not count as uses.
func blockUseDef(b *ir.Block, idx map[string]int) (use, def bitset.Set) {
	use = bitset.New(len(idx))
	def = bitset.New(len(idx))
	live := b.LiveByID()
	for _, n := range b.Nodes {
		switch n.Op {
		case ir.OpLoad:
			if live[n.ID] && !def.Get(idx[n.Var]) {
				use.Set(idx[n.Var])
			}
		case ir.OpStore:
			def.Set(idx[n.Var])
		}
	}
	return use, def
}

// LiveOutOf reports whether v is live at the exit of block i.
func (r *LivenessResult) LiveOutOf(i int, v string) bool {
	j, ok := r.varIndex[v]
	if !ok {
		return false
	}
	return r.Out[i].Get(j)
}

// LiveInOf reports whether v is live at the entry of block i.
func (r *LivenessResult) LiveInOf(i int, v string) bool {
	j, ok := r.varIndex[v]
	if !ok {
		return false
	}
	return r.In[i].Get(j)
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

// AppendOutVars appends the variables live at the exit of block i to
// dst in ascending order, straight from the bit set, and returns the
// extended slice.
func (r *LivenessResult) AppendOutVars(dst []string, i int) []string {
	for j, v := range r.Vars {
		if r.Out[i].Get(j) {
			dst = append(dst, v)
		}
	}
	return dst
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
	idx, live := blockLiveOut(b, liveOut)
	dead := make(map[int]bool)
	for i, d := range deadStoreScan(b, live, idx) {
		if d {
			dead[i] = true
		}
	}
	return dead
}

// blockLiveOut indexes the variables b reads or writes and returns the
// bit set of those live under liveOut (all of them when liveOut is
// nil). Variables b never touches cannot affect its dead stores.
func blockLiveOut(b *ir.Block, liveOut map[string]bool) (map[string]int, bitset.Set) {
	idx := make(map[string]int)
	for _, n := range b.Nodes {
		if n.Op == ir.OpLoad || n.Op == ir.OpStore {
			if _, ok := idx[n.Var]; !ok {
				idx[n.Var] = len(idx)
			}
		}
	}
	live := bitset.New(len(idx))
	for v, j := range idx {
		if liveOut == nil || liveOut[v] {
			live.Set(j)
		}
	}
	return idx, live
}

// deadStoreScan is the backward scan behind DeadStores and both
// PruneBlock forms. live holds the variables live at the block's exit,
// bits indexed by idx (which must cover every variable b touches); the
// scan consumes it. It returns a mark per position in b.Nodes, or nil
// when no store is dead.
func deadStoreScan(b *ir.Block, live bitset.Set, idx map[string]int) []bool {
	var dead []bool
	reach := b.LiveByID()
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		n := b.Nodes[i]
		switch n.Op {
		case ir.OpStore:
			j := idx[n.Var]
			if !live.Get(j) {
				if dead == nil {
					dead = make([]bool, len(b.Nodes))
				}
				dead[i] = true
			} else {
				live.Clear(j)
			}
		case ir.OpLoad:
			if reach[n.ID] {
				live.Set(idx[n.Var])
			}
		}
	}
	return dead
}
