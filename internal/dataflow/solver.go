package dataflow

import (
	"aviv/internal/bitset"
)

// Direction selects which way facts propagate along CFG edges.
type Direction int

// Dataflow directions.
const (
	Forward  Direction = iota // facts flow entry -> exit
	Backward                  // facts flow exit -> entry
)

// Meet selects the confluence operator where paths join.
type Meet int

// Meet operators. Union is the "may" (any-path) lattice, Intersect the
// "must" (all-path) lattice.
const (
	Union Meet = iota
	Intersect
)

// Problem is a gen/kill bit-vector dataflow problem over a CFG. The
// transfer function of block b is out = Gen[b] ∪ (in − Kill[b]) (with
// in/out swapped for backward problems).
type Problem struct {
	Dir  Direction
	Meet Meet
	// Bits is the universe size; every Gen/Kill/Boundary set must have
	// this capacity.
	Bits int
	// Gen and Kill are the per-block transfer summaries, indexed like
	// CFG.F.Blocks.
	Gen, Kill []bitset.Set
	// Boundary is the fact set at the graph boundary: the entry block's
	// in-set for forward problems, every exit block's out-set for
	// backward ones. nil means the empty set.
	Boundary bitset.Set
}

// Facts is a fixpoint solution: In[b] holds at block entry, Out[b] at
// block exit, indexed like CFG.F.Blocks.
type Facts struct {
	In, Out []bitset.Set
}

// Solve runs the iterative worklist algorithm to the (unique) maximal
// or minimal fixpoint. Blocks are seeded and re-queued in reverse
// postorder for forward problems and in postorder for backward ones, so
// the iteration order — and therefore the work done — is deterministic;
// the fixpoint itself is order-independent.
func Solve(g *CFG, p Problem) *Facts {
	n := len(g.F.Blocks)
	w := (p.Bits + 63) / 64
	// One allocation holds every fact set plus four scratch sets.
	words := make([]uint64, (2*n+4)*w)
	set := func(k int) bitset.Set { return bitset.Set(words[k*w : (k+1)*w : (k+1)*w]) }
	sets := make([]bitset.Set, 2*n)
	f := &Facts{In: sets[:n:n], Out: sets[n:]}
	// top is the meet identity: ∅ for union, the universe for intersect.
	// acc and next are transfer's scratch sets.
	top, acc, next := set(2*n), set(2*n+1), set(2*n+2)
	if p.Meet == Intersect {
		for i := 0; i < p.Bits; i++ {
			top.Set(i)
		}
	}
	for i := 0; i < n; i++ {
		f.In[i], f.Out[i] = set(i), set(n+i)
		f.In[i].Copy(top)
		f.Out[i].Copy(top)
	}
	boundary := p.Boundary
	if boundary == nil {
		boundary = set(2*n + 3)
	}

	meet := func(s bitset.Set) {
		if p.Meet == Union {
			acc.Or(acc, s)
		} else {
			acc.And(acc, s)
		}
	}
	// transfer recomputes the flow for block b and reports whether its
	// outgoing fact set changed.
	transfer := func(b int) bool {
		var inputs []int
		var at, result bitset.Set
		if p.Dir == Forward {
			inputs = g.Preds[b]
			at = f.In[b]
			result = f.Out[b]
		} else {
			inputs = g.Succs[b]
			at = f.Out[b]
			result = f.In[b]
		}
		// Meet over the incoming edges. The boundary contributes to the
		// entry block (forward) or to exit blocks (backward); a
		// non-boundary block with no incoming edges keeps the meet
		// identity.
		isBoundary := (p.Dir == Forward && b == 0) ||
			(p.Dir == Backward && len(g.Succs[b]) == 0)
		acc.Copy(top)
		if isBoundary {
			meet(boundary)
		}
		for _, e := range inputs {
			// Forward facts are about executions, and every execution
			// starts at the entry: an edge out of an unreachable block is
			// never taken, so it must not constrain (union) or poison
			// (intersect) its reachable successor. Backward problems keep
			// all successor edges — a block's continuation is meaningful
			// whether or not the block itself is reachable.
			if p.Dir == Forward && !g.Reach[e] {
				continue
			}
			if p.Dir == Forward {
				meet(f.Out[e])
			} else {
				meet(f.In[e])
			}
		}
		at.Copy(acc)
		// out = gen ∪ (in − kill)
		next.AndNot(acc, p.Kill[b])
		next.Or(next, p.Gen[b])
		if next.Equal(result) {
			return false
		}
		result.Copy(next)
		return true
	}

	// The worklist is a FIFO ring: a block is queued at most once, so n
	// slots suffice. It is seeded in reverse postorder for forward
	// problems and in postorder for backward ones.
	inQueue := make([]bool, n)
	queue := make([]int, n)
	head, size := 0, n
	for k, b := range g.RPO {
		if p.Dir == Backward {
			b = g.RPO[n-1-k]
		}
		queue[k] = b
		inQueue[b] = true
	}
	for size > 0 {
		b := queue[head]
		head = (head + 1) % n
		size--
		inQueue[b] = false
		if !transfer(b) {
			continue
		}
		var deps []int
		if p.Dir == Forward {
			deps = g.Succs[b]
		} else {
			deps = g.Preds[b]
		}
		for _, d := range deps {
			if !inQueue[d] {
				queue[(head+size)%n] = d
				size++
				inQueue[d] = true
			}
		}
	}
	return f
}
