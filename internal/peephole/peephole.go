// Package peephole implements the post-covering cleanup of the AVIV
// paper's Sec. IV-G: removing loads and spills that the covering's
// pessimistic lifetime analysis inserted unnecessarily, and compacting
// the schedule by moving operations into earlier empty slots when
// dependences and machine constraints allow. Either transformation is
// kept only when the solution still verifies and the code size does not
// grow.
//
// The division of labor with the global dataflow framework: dead stores
// of program variables are an IR-level, cross-block property and are
// removed upstream (internal/opt's global dead-store elimination, and
// aviv.Compile's per-block prune from the liveness bit sets,
// dataflow.LivenessResult.PruneBlock, before covering). This package
// only ever touches compiler-generated spill slots ($spN) and schedule
// slack — artifacts of covering and allocation that no IR-level
// analysis can see.
//
// Its output is what aviv's disk tier persists, so a block rebuilt from
// disk skips this pass; a change to what Optimize produces must bump
// the cover codec's version (cover/codec.go).
package peephole

import (
	"strings"

	"aviv/internal/cover"
	"aviv/internal/isdl"
)

// Optimize returns an improved covering solution, or the input solution
// unchanged when no transformation helps.
func Optimize(sol *cover.Solution) *cover.Solution {
	best := sol
	if improved, ok := removeRedundantSpills(best); ok {
		best = improved
	}
	if improved, ok := compact(best); ok {
		best = improved
	}
	return best
}

// spillSlot reports whether a memory name is a compiler-generated spill
// slot rather than a program variable.
func spillSlot(name string) bool { return strings.HasPrefix(name, "$sp") }

// removeRedundantSpills tries to delete each spill-slot store together
// with its same-bank reloads, rewiring the reload consumers back to the
// original producer. The removal sticks only when the solution still
// verifies (register pressure included) with no size increase.
func removeRedundantSpills(sol *cover.Solution) (*cover.Solution, bool) {
	improvedAny := false
	cur := sol
	for {
		slots := spillSlots(cur)
		progress := false
		for _, slot := range slots {
			if trial, ok := tryRemoveSlot(cur, slot); ok {
				cur = trial
				progress = true
				improvedAny = true
				break // slot list is stale; rescan
			}
		}
		if !progress {
			break
		}
	}
	return cur, improvedAny
}

func spillSlots(sol *cover.Solution) []string {
	seen := make(map[string]bool)
	var out []string
	for _, instr := range sol.Instrs {
		for _, n := range instr {
			if n.Kind == cover.StoreNode && spillSlot(n.Var) && !seen[n.Var] {
				seen[n.Var] = true
				out = append(out, n.Var)
			}
		}
	}
	return out
}

// tryRemoveSlot attempts to eliminate one spill slot on a clone.
func tryRemoveSlot(sol *cover.Solution, slot string) (*cover.Solution, bool) {
	c := sol.Clone()
	var spill *cover.SNode
	var reloads []*cover.SNode
	for _, instr := range c.Instrs {
		for _, n := range instr {
			if n.Var != slot {
				continue
			}
			switch n.Kind {
			case cover.StoreNode:
				spill = n
			case cover.LoadNode:
				reloads = append(reloads, n)
			}
		}
	}
	if spill == nil || len(spill.Preds) != 1 {
		return nil, false
	}
	producer := spill.Preds[0]
	prodLoc, ok := producer.DefLoc()
	if !ok || prodLoc.Kind != isdl.LocUnit {
		return nil, false
	}
	// Same-bank reloads rewire to the original register; cross-bank
	// reloads become direct register-to-register moves (a spill through
	// memory was only ever needed for pressure, which Verify re-checks
	// below).
	removed := map[*cover.SNode]bool{spill: true}
	for _, r := range reloads {
		if r.Step.To == prodLoc {
			for _, w := range append([]*cover.SNode(nil), r.Succs...) {
				unlink(r, w)
				link(producer, w)
			}
			for _, p := range append([]*cover.SNode(nil), r.OrdPreds...) {
				unlinkOrd(p, r)
			}
			removed[r] = true
			continue
		}
		// Repurpose the reload in place as a move from the producer's
		// bank: same bus slot, same consumers, no memory round trip.
		paths := c.Machine.TransferPaths(prodLoc, r.Step.To)
		if len(paths) == 0 || len(paths[0]) != 1 {
			return nil, false // no direct path; keep the spill
		}
		r.Kind = cover.MoveNode
		r.Var = ""
		r.Step = paths[0][0]
		for _, p := range append([]*cover.SNode(nil), r.OrdPreds...) {
			unlinkOrd(p, r)
		}
		link(producer, r)
	}
	for _, s := range append([]*cover.SNode(nil), spill.OrdSuccs...) {
		unlinkOrd(spill, s)
	}
	unlink(producer, spill)
	c.Instrs = filterInstrs(c.Instrs, removed)
	c.SpillCount--
	if c.SpillCount < 0 {
		c.SpillCount = 0
	}
	if err := c.Verify(); err != nil {
		return nil, false
	}
	if c.Cost() > sol.Cost() {
		return nil, false
	}
	return c, true
}

// compact moves nodes into earlier instructions when dependences, bank
// pressure, and grouping legality allow, then drops emptied instructions.
func compact(sol *cover.Solution) (*cover.Solution, bool) {
	c := sol.Clone()
	changed := false
	for {
		moved := false
		pos := positions(c)
		for i := 1; i < len(c.Instrs); i++ {
			for _, n := range append([]*cover.SNode(nil), c.Instrs[i]...) {
				earliest := 0
				for _, p := range n.Preds {
					if pos[p]+1 > earliest {
						earliest = pos[p] + 1
					}
				}
				for _, p := range n.OrdPreds {
					if pos[p]+1 > earliest {
						earliest = pos[p] + 1
					}
				}
				for j := earliest; j < i; j++ {
					if tryMove(c, n, i, j, pos) {
						pos = positions(c)
						moved = true
						changed = true
						break
					}
				}
			}
		}
		if !moved {
			break
		}
	}
	c.Instrs = dropEmpty(c.Instrs)
	if !changed || c.Cost() >= sol.Cost() {
		return nil, false
	}
	if err := c.Verify(); err != nil {
		return nil, false
	}
	return c, true
}

// tryMove relocates node n from instruction i to j, keeping the move only
// if the solution still verifies. cover.CanMove screens the move first
// with the Verify conditions it can break, so most illegal moves are
// rejected without a whole-block Verify; since each screened condition
// is one of Verify's own, the decisions are exactly those of running
// Verify on every trial. Every tried move first puts n last in
// instruction i, so a rejected move leaves the same instruction order
// (which the solution's output shows) whichever check rejected it, and
// the same as a remove-and-reinsert trial would.
func tryMove(c *cover.Solution, n *cover.SNode, i, j int, pos map[*cover.SNode]int) bool {
	instr := c.Instrs[i]
	moveToEnd(instr, n)
	if !c.CanMove(n, j, pos) {
		return false
	}
	c.Instrs[i] = instr[:len(instr)-1]
	c.Instrs[j] = append(c.Instrs[j], n)
	if err := c.Verify(); err != nil {
		c.Instrs[j] = c.Instrs[j][:len(c.Instrs[j])-1]
		c.Instrs[i] = instr
		return false
	}
	return true
}

// moveToEnd shifts x to the last position of list in place, keeping the
// order of the other nodes.
func moveToEnd(list []*cover.SNode, x *cover.SNode) {
	for k, n := range list {
		if n == x {
			copy(list[k:], list[k+1:])
			list[len(list)-1] = x
			return
		}
	}
}

func positions(c *cover.Solution) map[*cover.SNode]int {
	pos := make(map[*cover.SNode]int)
	for i, instr := range c.Instrs {
		for _, n := range instr {
			pos[n] = i
		}
	}
	return pos
}

func filterInstrs(instrs [][]*cover.SNode, removed map[*cover.SNode]bool) [][]*cover.SNode {
	var out [][]*cover.SNode
	for _, instr := range instrs {
		var kept []*cover.SNode
		for _, n := range instr {
			if !removed[n] {
				kept = append(kept, n)
			}
		}
		if len(kept) > 0 {
			out = append(out, kept)
		}
	}
	return out
}

func dropEmpty(instrs [][]*cover.SNode) [][]*cover.SNode {
	var out [][]*cover.SNode
	for _, instr := range instrs {
		if len(instr) > 0 {
			out = append(out, instr)
		}
	}
	return out
}

func link(from, to *cover.SNode) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func unlink(from, to *cover.SNode) {
	from.Succs = del(from.Succs, to)
	to.Preds = del(to.Preds, from)
}

func unlinkOrd(from, to *cover.SNode) {
	from.OrdSuccs = del(from.OrdSuccs, to)
	to.OrdPreds = del(to.OrdPreds, from)
}

func del(list []*cover.SNode, x *cover.SNode) []*cover.SNode {
	var out []*cover.SNode
	for _, n := range list {
		if n != x {
			out = append(out, n)
		}
	}
	return out
}
