package cover

import (
	"maps"
	"slices"
)

// Clone deep-copies the solution: every scheduled node, its edges, the
// instruction groups, and the external-use marks. The peephole pass edits
// clones so a failed transformation can be discarded — one clone per
// attempted transformation — so the copy is arena-style: all cloned
// nodes share one backing array, and all remapped edge lists and
// instruction groups are carved out of two pointer slabs.
func (s *Solution) Clone() *Solution {
	total := 0
	for _, instr := range s.Instrs {
		total += len(instr)
	}
	arena := make([]SNode, 0, total)
	nm := make(map[*SNode]*SNode, total)
	for _, instr := range s.Instrs {
		for _, n := range instr {
			arena = append(arena, *n)
			c := &arena[len(arena)-1]
			c.Preds, c.Succs, c.OrdPreds, c.OrdSuccs = nil, nil, nil, nil
			nm[n] = c
		}
	}
	edges := 0
	for n := range nm {
		edges += len(n.Preds) + len(n.Succs) + len(n.OrdPreds) + len(n.OrdSuccs)
	}
	// The slab never grows past its capacity (remap drops edges leaving
	// the cloned node set), so carved-out sub-slices stay valid.
	slab := make([]*SNode, 0, edges)
	remap := func(list []*SNode) []*SNode {
		start := len(slab)
		for _, n := range list {
			if c, ok := nm[n]; ok {
				slab = append(slab, c)
			}
		}
		if len(slab) == start {
			return nil
		}
		return slab[start:len(slab):len(slab)]
	}
	for old, c := range nm {
		c.Preds = remap(old.Preds)
		c.Succs = remap(old.Succs)
		c.OrdPreds = remap(old.OrdPreds)
		c.OrdSuccs = remap(old.OrdSuccs)
	}
	out := &Solution{
		Block:        s.Block,
		Machine:      s.Machine,
		Assignment:   s.Assignment,
		SpillCount:   s.SpillCount,
		ExternalUses: make(map[*SNode]int, len(s.ExternalUses)),
	}
	groups := make([]*SNode, total)
	out.Instrs = make([][]*SNode, 0, len(s.Instrs))
	for _, instr := range s.Instrs {
		group := groups[:len(instr):len(instr)]
		groups = groups[len(instr):]
		for i, n := range instr {
			group[i] = nm[n]
		}
		out.Instrs = append(out.Instrs, group)
	}
	for n, c := range s.ExternalUses {
		if cn, ok := nm[n]; ok {
			out.ExternalUses[cn] = c
		}
	}
	return out
}

// clone deep-copies a solution graph no scheduler has touched, so one
// build serves two schedules: coverAssignment hands the copy to the
// list scheduler and the original to the clique covering, which spills
// into it. Arena-style like Solution.Clone: the nodes share one backing
// array and the edge lists are carved from one pointer slab, remapped
// by SNode.ID (g.nodes[i].ID == i).
func (g *graph) clone() *graph {
	c := *g
	arena := make([]SNode, len(g.nodes))
	c.nodes = make([]*SNode, len(g.nodes), cap(g.nodes))
	edges := 0
	for i, n := range g.nodes {
		arena[i] = *n
		c.nodes[i] = &arena[i]
		edges += len(n.Preds) + len(n.Succs) + len(n.OrdPreds) + len(n.OrdSuccs)
	}
	slab := make([]*SNode, 0, edges)
	remap := func(list []*SNode) []*SNode {
		if len(list) == 0 {
			return nil
		}
		start := len(slab)
		for _, n := range list {
			slab = append(slab, &arena[n.ID])
		}
		return slab[start:len(slab):len(slab)]
	}
	for i := range arena {
		n := &arena[i]
		n.Preds, n.Succs = remap(n.Preds), remap(n.Succs)
		n.OrdPreds, n.OrdSuccs = remap(n.OrdPreds), remap(n.OrdSuccs)
	}
	c.slab = nil // new nodes start a batch of their own
	c.prod = make([]*SNode, len(g.prod))
	for i, p := range g.prod {
		if p != nil {
			c.prod[i] = &arena[p.ID]
		}
	}
	c.locs = slices.Clone(g.locs)
	c.busLoad = maps.Clone(g.busLoad)
	c.externalUses = make(map[*SNode]int, len(g.externalUses))
	for n, k := range g.externalUses {
		c.externalUses[&arena[n.ID]] = k
	}
	ix := *g.ix
	ix.res, ix.bank, ix.lat = slices.Clone(ix.res), slices.Clone(ix.bank), slices.Clone(ix.lat)
	c.ix = &ix
	return &c
}
