package dataflow

import (
	"aviv/internal/bitset"
	"aviv/internal/ir"
)

// Def is one definition site of a memory variable. NodeIdx is the index
// into Blocks[BlockIdx].Nodes of the store; the synthetic "uninitialized
// at function entry" definition of each variable has BlockIdx == -1 and
// NodeIdx == -1.
type Def struct {
	BlockIdx int
	NodeIdx  int
	Var      string
}

// Entry reports whether d is the synthetic entry (uninitialized)
// definition.
func (d Def) Entry() bool { return d.BlockIdx < 0 }

// ReachingResult holds the reaching-definitions solution: which
// definitions of each variable may reach each block boundary along some
// execution path with no intervening store to the variable.
type ReachingResult struct {
	G    *CFG
	Defs []Def // fact universe: entry defs first (sorted by var), then stores in block/node order
	// In and Out are the reaching sets per block, bits indexed by Defs.
	In, Out []bitset.Set

	defIndex map[Def]int
}

// ReachingCFG computes reaching definitions over a prebuilt CFG.
func ReachingCFG(g *CFG) *ReachingResult {
	vars := g.Vars()
	var defs []Def
	for _, v := range vars {
		defs = append(defs, Def{BlockIdx: -1, NodeIdx: -1, Var: v})
	}
	for i, b := range g.F.Blocks {
		for j, n := range b.Nodes {
			if n.Op == ir.OpStore {
				defs = append(defs, Def{BlockIdx: i, NodeIdx: j, Var: n.Var})
			}
		}
	}
	idx := make(map[Def]int, len(defs))
	defsOf := make(map[string][]int, len(vars))
	for i, d := range defs {
		idx[d] = i
		defsOf[d.Var] = append(defsOf[d.Var], i)
	}

	n := len(g.F.Blocks)
	p := Problem{
		Dir:  Forward,
		Meet: Union,
		Bits: len(defs),
		Gen:  make([]bitset.Set, n),
		Kill: make([]bitset.Set, n),
	}
	for i, b := range g.F.Blocks {
		gen := bitset.New(len(defs))
		kill := bitset.New(len(defs))
		last := make(map[string]int) // var -> node index of last store
		for j, nd := range b.Nodes {
			if nd.Op == ir.OpStore {
				last[nd.Var] = j
			}
		}
		for v, j := range last {
			for _, di := range defsOf[v] {
				kill.Set(di)
			}
			gen.Set(idx[Def{BlockIdx: i, NodeIdx: j, Var: v}])
		}
		p.Gen[i] = gen
		p.Kill[i] = kill
	}
	// At function entry every variable holds its (possibly
	// uninitialized) initial memory value.
	boundary := bitset.New(len(defs))
	for i := range vars {
		boundary.Set(i) // entry defs occupy the first len(vars) bits
	}
	p.Boundary = boundary
	facts := Solve(g, p)
	return &ReachingResult{G: g, Defs: defs, In: facts.In, Out: facts.Out, defIndex: idx}
}

// EntryReachesIn reports whether the uninitialized entry value of v may
// still reach the entry of block i.
func (r *ReachingResult) EntryReachesIn(i int, v string) bool {
	j, ok := r.defIndex[Def{BlockIdx: -1, NodeIdx: -1, Var: v}]
	if !ok {
		return false
	}
	return r.In[i].Get(j)
}

// StoreReachesIn reports whether any real store of v reaches the entry
// of block i.
func (r *ReachingResult) StoreReachesIn(i int, v string) bool {
	for j, d := range r.Defs {
		if d.Var == v && !d.Entry() && r.In[i].Get(j) {
			return true
		}
	}
	return false
}

// HasStore reports whether any block stores v.
func (r *ReachingResult) HasStore(v string) bool {
	for _, d := range r.Defs {
		if d.Var == v && !d.Entry() {
			return true
		}
	}
	return false
}
