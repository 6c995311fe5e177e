package dataflow

import "aviv/internal/bitset"

// DomResult holds the dominator solution: Dom[i] is the set of blocks
// (by index) appearing on every path from the entry to block i,
// including i itself. Unreachable blocks are dominated by everything
// (the vacuous all-paths convention).
type DomResult struct {
	G   *CFG
	Dom []bitset.Set
}

// Dominators computes the dominator sets of f's blocks via the classic
// forward must-problem: Dom[entry] = {entry}, Dom[b] = {b} ∪ ⋂ preds.
func Dominators(g *CFG) *DomResult {
	n := len(g.F.Blocks)
	p := Problem{
		Dir:  Forward,
		Meet: Intersect,
		Bits: n,
		Gen:  make([]bitset.Set, n),
		Kill: make([]bitset.Set, n),
	}
	for i := 0; i < n; i++ {
		gen := bitset.New(n)
		gen.Set(i)
		p.Gen[i] = gen
		p.Kill[i] = bitset.New(n)
	}
	// The entry starts with no dominators besides itself (its gen bit).
	facts := Solve(g, p)
	return &DomResult{G: g, Dom: facts.Out}
}

// Dominates reports whether block b dominates block c.
func (r *DomResult) Dominates(b, c int) bool { return r.Dom[c].Get(b) }

// BackEdges returns the CFG edges u -> v whose target dominates their
// source — the back edges of natural loops — in deterministic
// (source-block, edge) order.
func (r *DomResult) BackEdges() [][2]int {
	var out [][2]int
	for u := range r.G.F.Blocks {
		if !r.G.Reach[u] {
			continue
		}
		for _, v := range r.G.Succs[u] {
			if r.Dominates(v, u) {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

// LoopBlocks returns the set of blocks inside some natural loop: for
// each back edge u -> v, the loop body is v plus every block that can
// reach u without passing through v.
func (r *DomResult) LoopBlocks() []bool {
	inLoop := make([]bool, len(r.G.F.Blocks))
	for _, e := range r.BackEdges() {
		u, v := e[0], e[1]
		inLoop[v] = true
		// Walk predecessors backward from u, stopping at the header v.
		visited := make([]bool, len(r.G.F.Blocks))
		visited[v] = true
		stack := []int{u}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visited[b] {
				continue
			}
			visited[b] = true
			inLoop[b] = true
			for _, p := range r.G.Preds[b] {
				stack = append(stack, p)
			}
		}
	}
	return inLoop
}
