package cover

import (
	"fmt"
	"sort"

	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sndag"
)

// Assignment is one complete functional-unit assignment: a chosen
// alternative for every split node that is not absorbed into a complex
// instruction chosen for one of its users.
type Assignment struct {
	// Choice maps each executing original node (Covers[0] of its chosen
	// alternative) to that alternative.
	Choice map[*ir.Node]*sndag.Alt
	// AbsorbedBy maps interior nodes swallowed by a complex-instruction
	// choice to the executing root node.
	AbsorbedBy map[*ir.Node]*ir.Node
	// HeurCost is the heuristic cost accumulated during the search
	// (transfers + foregone parallelism, Sec. IV-A).
	HeurCost int
}

// UnitOf returns the unit executing the value-producing node n under the
// assignment, resolving absorbed nodes to their executing root.
func (a *Assignment) UnitOf(n *ir.Node) *isdl.Unit {
	if root, ok := a.AbsorbedBy[n]; ok {
		n = root
	}
	if alt, ok := a.Choice[n]; ok {
		return alt.Unit
	}
	return nil
}

// independence precomputes, for a block, whether two nodes have no
// directed path between them in the expression DAG (and therefore could
// execute in parallel, resources permitting).
type independence struct {
	reach map[*ir.Node]map[*ir.Node]bool // reach[a][b]: b reachable from a via operand edges
}

func newIndependence(b *ir.Block) *independence {
	reach := make(map[*ir.Node]map[*ir.Node]bool, len(b.Nodes))
	for _, n := range b.Nodes { // topological order: operands first
		r := make(map[*ir.Node]bool)
		for _, a := range n.Args {
			r[a] = true
			for k := range reach[a] {
				r[k] = true
			}
		}
		reach[n] = r
	}
	return &independence{reach: reach}
}

// Independent reports whether no directed path connects a and b.
func (ind *independence) Independent(a, b *ir.Node) bool {
	if a == b {
		return false
	}
	return !ind.reach[a][b] && !ind.reach[b][a]
}

// exploreAssignments enumerates split-node functional-unit assignments
// (Sec. IV-A). With opts.PruneIncremental it expands, at every split
// node, only the alternatives of minimal incremental cost (ties all
// expanded, Fig. 6); otherwise it expands everything. The result is
// sorted by heuristic cost and truncated to opts.BeamWidth.
func exploreAssignments(d *sndag.DAG, opts Options) []*Assignment {
	order := d.TopDownOrder()
	users := d.Block.Users()
	ind := newIndependence(d.Block)
	dm := isdl.MemLoc(d.Machine.DataMemory().Name)

	var out []*Assignment
	choice := make(map[*ir.Node]*sndag.Alt)
	absorbed := make(map[*ir.Node]*ir.Node)

	// incCost computes the incremental cost of executing node n with alt:
	// required transfers to already-assigned users and from leaf/load
	// operands, plus one per already-assigned independent node placed on
	// the same unit (parallelism foregone).
	incCost := func(n *ir.Node, alt *sndag.Alt) int {
		cost := 0
		uloc := isdl.UnitLoc(alt.Unit.Regs.Name)
		// Transfers to users already assigned (processed earlier in
		// top-down order). Includes store users (value must reach DM).
		for _, covered := range alt.Covers {
			for _, u := range users[covered] {
				if u.Op == ir.OpStore {
					if c := d.Machine.PathCost(uloc, dm); c > 0 {
						cost += c
					}
					continue
				}
				// Resolve the user's executing alternative, if any.
				exec := u
				if root, ok := absorbed[u]; ok {
					exec = root
				}
				ualt, ok := choice[exec]
				if !ok {
					continue
				}
				// Only if the covered value actually feeds the user's
				// chosen alternative (not swallowed inside it).
				feeds := false
				for _, op := range ualt.Operands {
					if op == covered {
						feeds = true
						break
					}
				}
				if !feeds {
					continue
				}
				if c := d.Machine.PathCost(uloc, isdl.UnitLoc(ualt.Unit.Regs.Name)); c > 0 {
					cost += c
				}
			}
		}
		// Transfers from load operands. Loads that feed an interior node
		// absorbed by a complex instruction are not charged: a simple
		// alternative for that interior node would pay them anyway, and
		// charging them here would unfairly prune complex matches.
		interiorLoads := make(map[*ir.Node]bool)
		for _, m := range alt.Covers[1:] {
			for _, arg := range m.Args {
				if arg.Op == ir.OpLoad {
					interiorLoads[arg] = true
				}
			}
		}
		for _, op := range alt.Operands {
			if op.Op == ir.OpLoad && !interiorLoads[op] {
				if c := d.Machine.PathCost(dm, uloc); c > 0 {
					cost += c
				}
			}
		}
		// Parallelism foregone: previously assigned independent nodes on
		// the same unit.
		for m, malt := range choice {
			if malt.Unit == alt.Unit && ind.Independent(m, n) {
				cost++
			}
		}
		return cost
	}

	var dfs func(i, costSoFar int)
	dfs = func(i, costSoFar int) {
		if opts.MaxAssignments > 0 && len(out) >= opts.MaxAssignments {
			return
		}
		// Skip splits absorbed by a complex choice made above.
		for i < len(order) {
			if _, isAbsorbed := absorbed[order[i].Orig]; !isAbsorbed {
				break
			}
			i++
		}
		if i == len(order) {
			a := &Assignment{
				Choice:     make(map[*ir.Node]*sndag.Alt, len(choice)),
				AbsorbedBy: make(map[*ir.Node]*ir.Node, len(absorbed)),
				HeurCost:   costSoFar,
			}
			for k, v := range choice {
				a.Choice[k] = v
			}
			for k, v := range absorbed {
				a.AbsorbedBy[k] = v
			}
			out = append(out, a)
			return
		}
		s := order[i]
		costs := make([]int, len(s.Alts))
		viable := make([]bool, len(s.Alts))
		minCost := -1
		for j, alt := range s.Alts {
			// An operation whose distinct register operands cannot fit
			// the unit's register file can never issue; drop the
			// alternative outright.
			if distinctRegOperands(alt) > alt.Unit.Regs.Size {
				continue
			}
			viable[j] = true
			costs[j] = incCost(s.Orig, alt)
			if minCost < 0 || costs[j] < minCost {
				minCost = costs[j]
			}
		}
		for j, alt := range s.Alts {
			if !viable[j] {
				continue
			}
			pruned := opts.PruneIncremental && costs[j] > minCost
			if opts.Trace != nil {
				opts.Trace.assignStep(s.Orig, alt, costs[j], pruned)
			}
			if pruned {
				continue
			}
			choice[s.Orig] = alt
			for _, covered := range alt.Covers[1:] {
				absorbed[covered] = s.Orig
			}
			dfs(i+1, costSoFar+costs[j])
			delete(choice, s.Orig)
			for _, covered := range alt.Covers[1:] {
				delete(absorbed, covered)
			}
		}
	}
	dfs(0, 0)

	sort.SliceStable(out, func(i, j int) bool {
		if out[i].HeurCost != out[j].HeurCost {
			return out[i].HeurCost < out[j].HeurCost
		}
		// Tie: prefer assignments with fewer executing operations (i.e.
		// complex instructions absorbing interior nodes).
		return len(out[i].Choice) < len(out[j].Choice)
	})
	if opts.BeamWidth > 0 && len(out) > opts.BeamWidth {
		out = out[:opts.BeamWidth]
	}
	if opts.Trace != nil {
		opts.Trace.logf("assignment search: %d kept (beam %d)", len(out), opts.BeamWidth)
		for i, a := range out {
			opts.Trace.logf("  candidate %d: heuristic cost %d: %s", i, a.HeurCost, describeAssignment(d, a))
		}
	}
	return out
}

// distinctRegOperands counts the distinct register-resident operands an
// alternative reads (constants are immediates and duplicated operands
// share one register).
func distinctRegOperands(alt *sndag.Alt) int {
	seen := make(map[*ir.Node]bool, len(alt.Operands))
	for _, op := range alt.Operands {
		if op.Op != ir.OpConst {
			seen[op] = true
		}
	}
	return len(seen)
}

func describeAssignment(d *sndag.DAG, a *Assignment) string {
	s := ""
	for _, sp := range d.Splits {
		alt, ok := a.Choice[sp.Orig]
		if !ok {
			if root, abs := a.AbsorbedBy[sp.Orig]; abs {
				s += fmt.Sprintf("n%d:in(n%d) ", sp.Orig.ID, root.ID)
			}
			continue
		}
		s += fmt.Sprintf("n%d:%s ", sp.Orig.ID, alt)
	}
	return s
}
