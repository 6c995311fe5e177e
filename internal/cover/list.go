package cover

import (
	"cmp"
	"fmt"
	"slices"

	"aviv/internal/sndag"
)

// ListSchedule covers a fixed functional-unit assignment with a classic
// ready-list scheduler instead of the maximal-clique covering: at every
// cycle it packs ready nodes into the instruction in priority order
// (height above the leaves, then ID), subject to resource compatibility,
// grouping legality, and register-bank pressure. Spills reuse the same
// mechanism as the clique coverer.
//
// This is the scheduling half of the sequential phase-ordered baseline
// the paper argues against: instruction selection happened before (and
// blind to) scheduling.
func ListSchedule(d *sndag.DAG, a *Assignment, opts Options) (*Solution, error) {
	g, err := buildGraph(d, a, opts)
	if err != nil {
		return nil, err
	}
	return listSchedule(d, a, g, opts)
}

// listSchedule is ListSchedule on a's solution graph g, fresh from
// buildGraph (or a clone of one).
func listSchedule(d *sndag.DAG, a *Assignment, g *graph, opts Options) (*Solution, error) {
	s := newScheduler(g, opts)

	// Heights by SNode.ID: snodeLevels indexes by position, and
	// g.nodes[i].ID == i.
	heights := func() []int32 {
		_, bot := snodeLevels(s.g.nodes)
		return bot
	}
	h := heights()

	remaining := len(s.uncoveredNodes())
	maxStreak := 2*remaining + 8
	maxGuard := 40*remaining + 200
	guard, spillStreak := 0, 0
	// Scratch buffers, reused across cycles: schedule copies the
	// instruction it is given.
	var ready, instr, trial []*SNode
	for remaining > 0 {
		guard++
		if guard > maxGuard {
			return nil, fmt.Errorf("cover: list scheduler stuck with %d nodes", remaining)
		}
		ready = ready[:0]
		for _, n := range s.g.nodes {
			if s.issueable(n) && s.allowedByGoal(n) {
				ready = append(ready, n)
			}
		}
		slices.SortFunc(ready, func(a, b *SNode) int {
			if ha, hb := h[a.ID], h[b.ID]; ha != hb {
				return cmp.Compare(hb, ha)
			}
			return cmp.Compare(a.ID, b.ID)
		})

		// Pack useful nodes first (same anti-ping-pong gate as the clique
		// coverer: parking values early inflates pressure), then fill
		// from the rest only if nothing useful fit. A candidate is tried
		// in trial and, when it fits, trial and instr swap buffers.
		instr = instr[:0]
		pack := func(gated bool) {
			for _, n := range ready {
				if gated && !s.useful(n) {
					continue
				}
				if containsNode(instr, n) {
					continue
				}
				trial = append(append(trial[:0], instr...), n)
				if !pairwiseCompatible(trial, s.g.ix) || !legalGroup(trial, s.g.machine) {
					continue
				}
				if !s.feasible(trial) {
					continue
				}
				instr, trial = trial, instr
			}
		}
		pack(true)
		if len(instr) == 0 {
			pack(false)
		}
		if len(instr) == 0 {
			// A NOP lets a multi-cycle result complete.
			if s.latencyPending() {
				s.schedule(nil)
				continue
			}
			spillStreak++
			if spillStreak > maxStreak {
				return nil, fmt.Errorf("cover: register files too small for list schedule")
			}
			if err := s.spill(); err != nil {
				return nil, err
			}
			h = heights()
			remaining = len(s.uncoveredNodes())
			continue
		}
		spillStreak = 0
		s.schedule(instr)
		remaining -= len(instr)
	}
	return &Solution{
		Block:        d.Block,
		Machine:      d.Machine,
		Assignment:   a,
		Instrs:       s.instrs,
		SpillCount:   s.spillCount,
		ExternalUses: g.externalUses,
	}, nil
}

func pairwiseCompatible(group []*SNode, ix *nodeIndex) bool {
	for i := 0; i < len(group); i++ {
		for j := i + 1; j < len(group); j++ {
			if !ix.compatible(group[i], group[j]) {
				return false
			}
		}
	}
	return true
}

func containsNode(list []*SNode, x *SNode) bool {
	for _, n := range list {
		if n == x {
			return true
		}
	}
	return false
}
