package cover

// assignmentLowerBound returns an admissible lower bound on the cost (in
// VLIW instructions) of any covering the scheduler can produce from the
// given solution graph — including coverings obtained after spilling. It
// lets CoverDAG order assignments best-first and prune ones whose bound
// already exceeds the incumbent, without ever changing which solution
// wins: a pruned assignment provably cannot beat the incumbent even on
// cost ties, because pruning requires bound strictly above the incumbent
// cost.
//
// Spilling can only add work (store/reload chains and their order
// edges), with one exception: spillValue removes uncovered MoveNodes on
// the victim's chains and rewires their consumers through memory. Every
// component below is therefore computed so that it survives move
// removal:
//
//   - resource bounds count only OpNodes and the original Load/Store
//     transfers, never moves;
//   - the critical path caps each register-to-register move chain's
//     contribution at min(length, 2), because a rewired consumer still
//     waits for a spill store (>= 1 cycle after the producer's value is
//     ready) plus a reload (>= 1 cycle after the store) — at least two
//     cycles past the chain head no matter how much of the chain was
//     deleted.
func assignmentLowerBound(g *graph) int {
	ops, memops := 0, 0
	ix := g.ix
	cnt := make([]int, len(ix.width)) // per resource
	for _, n := range g.nodes {
		switch n.Kind {
		case OpNode:
			ops++
		case LoadNode, StoreNode:
			memops++
		default:
			continue
		}
		cnt[ix.res[n.ID]]++
	}
	lb := 0
	if ops+memops > 0 {
		lb = 1
	}
	// One op per unit, at most Width transfers per bus, per instruction
	// (a unit's width is 1).
	for r, c := range cnt {
		if need := (c + ix.width[r] - 1) / ix.width[r]; need > lb {
			lb = need
		}
	}
	// Total issue slots: every op occupies a unit, every load/store a bus
	// slot, so an instruction holds at most units+sum(widths) of them.
	width := len(g.machine.Units)
	for _, b := range g.machine.Buses {
		width += b.Width
	}
	if width > 0 {
		if need := (ops + memops + width - 1) / width; need > lb {
			lb = need
		}
	}
	if cp := criticalPathBound(g); cp > lb {
		lb = cp
	}
	return lb
}

// criticalPathBound computes the dependence-height bound. Non-move
// nodes get an earliest issue cycle E; the path length is max(E)+1.
// Move chains are tracked as a pair of chain-head times so their
// contribution to a consumer saturates at two cycles (see
// assignmentLowerBound): s1 is the latest value-ready time among chain
// paths one move deep, s2 the latest among paths two or more deep.
func criticalPathBound(g *graph) int {
	order := topoOrder(newSubset(g.nodes))
	earliest := make([]int32, g.nextID)
	s1 := make([]int32, g.nextID)
	s2 := make([]int32, g.nextID)
	cp := 0
	for _, i := range order {
		n := g.nodes[i]
		if n.Kind == MoveNode {
			h1, h2 := int32(-1), int32(-1)
			for _, p := range n.Preds {
				if p.Kind == MoveNode {
					// One hop deeper: the pred's 1-deep paths become
					// 2-deep; its >=2-deep paths stay >=2-deep.
					if s1[p.ID] > h2 {
						h2 = s1[p.ID]
					}
					if s2[p.ID] > h2 {
						h2 = s2[p.ID]
					}
				} else {
					if t := earliest[p.ID] + g.ix.lat[p.ID]; t > h1 {
						h1 = t
					}
				}
			}
			s1[n.ID], s2[n.ID] = h1, h2
			continue
		}
		e := int32(0)
		for _, p := range n.Preds {
			var t int32
			if p.Kind == MoveNode {
				// A consumer k moves past the chain head issues at least
				// min(k, 2) cycles after the head value is ready, even if
				// spilling rewrites the chain.
				t = -1
				if s1[p.ID] >= 0 {
					t = s1[p.ID] + 1
				}
				if s2[p.ID] >= 0 && s2[p.ID]+2 > t {
					t = s2[p.ID] + 2
				}
			} else {
				t = earliest[p.ID] + g.ix.lat[p.ID]
			}
			if t > e {
				e = t
			}
		}
		for _, p := range n.OrdPreds {
			// Order edges never leave a MoveNode (spill machinery only
			// links stores/loads); guard anyway by contributing nothing.
			if p.Kind != MoveNode {
				if t := earliest[p.ID] + 1; t > e {
					e = t
				}
			}
		}
		earliest[n.ID] = e
		if int(e)+1 > cp {
			cp = int(e) + 1
		}
	}
	return cp
}
