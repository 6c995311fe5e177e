package dataflow

import (
	"aviv/internal/bitset"
	"aviv/internal/ir"
)

// State is the dataflow state of one whole-function optimization: the
// CFG, the variable and expression numbering (X), and a summary of each
// block in dense form: its expression IDs, its memory accesses by
// VarID, its liveness use/def sets and the available-expression facts
// it generates. Summaries are cached by *ir.Block at each block index,
// so after a pass replaces some blocks the next analysis summarizes
// only those. A block must therefore not be modified in place once
// summarized (the optimizer replaces blocks, never edits them), and
// neither the block count nor a terminator may change, since the CFG
// is built once.
//
// A State serves one function for as long as its caller keeps it; it
// holds no global cache. LivenessCFG and AvailableCFG are one-shot uses
// of a fresh State whose variables are numbered in name order.
type State struct {
	G *CFG
	X *Exprs

	sums []blockSummary // per block index

	// Slabs the summaries are carved from, and scratch.
	idSlab   []ExprID
	refSlab  []memRef
	wordSlab []uint64
	genSlab  []ExprFact
	refBuf   []memRef
	genBuf   []ExprFact
	reach    []bool
	seen     bitset.Set
	prune    bitset.Set
}

// blockSummary is the dense form of one block, valid while the function
// holds b at the summary's index.
type blockSummary struct {
	b    *ir.Block
	ids  []ExprID // expression ID per Node.ID
	refs []memRef // the block's memory accesses in execution order
	// use holds the variables read before any store to them in the
	// block, def those it stores, and mem those any of its loads or
	// stores name, dead loads included; bits indexed by VarID.
	use, def, mem bitset.Set
	gens          []ExprFact // available-expression facts the block generates
}

// memRef is one memory access of a block: the store or the load (loads
// not reachable from a root are dead code and are left out) at
// position pos of Block.Nodes, of variable v.
type memRef struct {
	pos   int32
	v     VarID
	store bool
}

// NewState returns the dataflow state of g's function, for a caller
// that keeps it across passes. Its variables are numbered in one pass
// over the nodes, in first-appearance order.
func NewState(g *CFG) *State { return newState(g, false) }

// oneShot returns the state of a one-shot analysis. Its variables are
// numbered in name order, so the result lists them sorted, whatever
// order the blocks name them in.
func oneShot(g *CFG) *State { return newState(g, true) }

func newState(g *CFG, sorted bool) *State {
	nodes, refs, stores := 0, 0, 0
	for _, b := range g.F.Blocks {
		nodes += len(b.Nodes)
		for _, n := range b.Nodes {
			switch n.Op {
			case ir.OpStore:
				stores++
				fallthrough
			case ir.OpLoad:
				refs++
			}
		}
	}
	// Sizes are estimates: about half the nodes are distinct
	// expressions, and a variable is accessed about twice.
	x := newExprs(nodes/2, refs/2)
	for _, b := range g.F.Blocks {
		for _, n := range b.Nodes {
			if n.Op == ir.OpLoad || n.Op == ir.OpStore {
				x.varOf(n.Var)
			}
		}
	}
	if sorted {
		x.sortVars()
	}
	s := &State{
		G:       g,
		X:       x,
		sums:    make([]blockSummary, len(g.F.Blocks)),
		idSlab:  make([]ExprID, 0, nodes),
		refSlab: make([]memRef, 0, refs),
		genSlab: make([]ExprFact, 0, stores),
	}
	s.wordSlab = make([]uint64, 0, 3*s.words()*len(g.F.Blocks))
	return s
}

// words returns the number of bitset words that hold one bit per
// variable numbered so far.
func (s *State) words() int { return (s.X.NumVars() + 63) / 64 }

// refresh brings every block's summary up to date. Summarizing a
// replaced block may number a new variable, which widens the variable
// sets; summaries of the old width are then redone.
func (s *State) refresh() {
	for {
		n := s.X.NumVars()
		for i := range s.sums {
			s.summary(i)
		}
		if s.X.NumVars() == n {
			return
		}
	}
}

// summary returns block i's summary, recomputing it when the function
// holds another block at i than when it was last summarized.
func (s *State) summary(i int) *blockSummary {
	sm := &s.sums[i]
	b := s.G.F.Blocks[i]
	if sm.b == b && len(sm.use) == s.words() {
		return sm
	}
	sm.b = b
	sm.ids = carve(&s.idSlab, b.IDBound())
	s.X.keyBlock(b, sm.ids)
	s.reach = b.LiveByID(s.reach)
	s.refBuf = s.X.memRefs(b, s.reach, s.refBuf[:0])
	sm.refs = carveCopy(&s.refSlab, s.refBuf)

	w := s.words()
	sets := carve(&s.wordSlab, 3*w)
	sm.use, sm.def, sm.mem = sets[:w:w], sets[w:2*w:2*w], sets[2*w:]
	for _, r := range sm.refs {
		if r.store {
			sm.def.Set(int(r.v))
		} else if !sm.def.Get(int(r.v)) {
			sm.use.Set(int(r.v))
		}
	}
	sm.mem.Copy(sm.def)
	for _, n := range b.Nodes {
		if n.Op == ir.OpLoad {
			sm.mem.Set(int(s.X.info[sm.ids[n.ID]].sig.c))
		}
	}

	// A fact names a variable's last store when the stored value is a
	// computation over entry values: none of the variables it reads is
	// stored anywhere in the block (which excludes the variable itself).
	s.seen = resizeFill(s.seen, w, 0)
	s.genBuf = s.genBuf[:0]
	for k := len(sm.refs) - 1; k >= 0; k-- {
		r := sm.refs[k]
		if !r.store || s.seen.Get(int(r.v)) {
			continue
		}
		s.seen.Set(int(r.v))
		id := sm.ids[b.Nodes[r.pos].Args[0].ID]
		if id == NoExpr || !s.X.IsComputation(id) || readsAny(s.X.Vars(id), sm.def) {
			continue
		}
		s.genBuf = append(s.genBuf, ExprFact{Var: r.v, Expr: id})
	}
	sm.gens = carveCopy(&s.genSlab, s.genBuf)
	return sm
}

// memRefs appends b's memory accesses to dst, numbering their
// variables; reach is b.LiveByID.
func (x *Exprs) memRefs(b *ir.Block, reach []bool, dst []memRef) []memRef {
	for k, n := range b.Nodes {
		switch {
		case n.Op == ir.OpStore:
			dst = append(dst, memRef{pos: int32(k), v: x.varOf(n.Var), store: true})
		case n.Op == ir.OpLoad && reach[n.ID]:
			dst = append(dst, memRef{pos: int32(k), v: x.varOf(n.Var)})
		}
	}
	return dst
}

// readsAny reports whether any of vars is in set.
func readsAny(vars []VarID, set bitset.Set) bool {
	for _, v := range vars {
		if set.Get(int(v)) {
			return true
		}
	}
	return false
}

// ExprIDs returns the expression ID of every node of block i, indexed by
// Node.ID (NoExpr for stores and over-deep subtrees). Callers must not
// modify the result.
func (s *State) ExprIDs(i int) []ExprID { return s.summary(i).ids }

// FirstStores sets dst[v], for every variable v, to the position in
// block i's Nodes of the block's first store to v, or -1 when the block
// does not store v. dst is grown to NumVars entries and returned.
func (s *State) FirstStores(i int, dst []int32) []int32 {
	sm := s.summary(i)
	dst = resizeFill(dst, s.X.NumVars(), -1)
	for _, r := range sm.refs {
		if r.store && dst[r.v] < 0 {
			dst[r.v] = r.pos
		}
	}
	return dst
}

// carve returns n zeroed elements from *slab, starting a new chunk when
// the current one is full. Carved slices never overlap. NewState sizes
// the first chunks for every block; later chunks serve only replaced
// blocks, so they stay small.
func carve[T any](slab *[]T, n int) []T {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, max(n, 64))
	}
	k := len(*slab)
	*slab = (*slab)[:k+n]
	return (*slab)[k : k+n : k+n]
}

// carveCopy carves a copy of src from *slab.
func carveCopy[T any](slab *[]T, src []T) []T {
	if len(src) == 0 {
		return nil
	}
	out := carve(slab, len(src))
	copy(out, src)
	return out
}

// resizeFill returns s resized to n elements, each set to v, reusing
// its storage when large enough.
func resizeFill[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}
