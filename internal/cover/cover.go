package cover

import (
	"fmt"
	"sort"
	"strings"

	"aviv/internal/bitset"
	"aviv/internal/dataflow"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sndag"
)

// Solution is a complete covering of one basic block: a functional-unit
// assignment, the scheduled VLIW instructions (each a shrunk maximal
// clique of operation and transfer nodes), and the spills inserted along
// the way. Detailed register allocation (package regalloc) is the only
// remaining step, and is guaranteed to succeed (Sec. IV-F).
type Solution struct {
	Block      *ir.Block
	Machine    *isdl.Machine
	Assignment *Assignment

	// Instrs is the schedule: one entry per VLIW instruction, each a set
	// of parallel solution-graph nodes.
	Instrs [][]*SNode
	// SpillCount is the number of values spilled to memory.
	SpillCount int

	// ExternalUses marks values that must stay register-resident past
	// the block (the branch condition holder).
	ExternalUses map[*SNode]int
}

// Cost returns the code size of the block body in instructions — the
// optimization objective of the paper.
func (s *Solution) Cost() int { return len(s.Instrs) }

// Nodes returns every node appearing in the schedule.
func (s *Solution) Nodes() []*SNode {
	var out []*SNode
	for _, instr := range s.Instrs {
		out = append(out, instr...)
	}
	return out
}

// CondHolder returns the node whose result register holds the branch
// condition, or nil when the block does not branch on a register value.
// ExternalUses carries exactly the condition holder today, but the
// lowest-ID fold keeps the choice deterministic even if that invariant
// ever loosens.
func (s *Solution) CondHolder() *SNode {
	var best *SNode
	for n := range s.ExternalUses {
		if best == nil || n.ID < best.ID {
			best = n
		}
	}
	return best
}

func (s *Solution) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "solution for %s on %s: %d instructions, %d spills\n",
		s.Block.Name, s.Machine.Name, s.Cost(), s.SpillCount)
	for i, instr := range s.Instrs {
		fmt.Fprintf(&sb, "  I%-3d %s\n", i, formatClique(instr))
	}
	return sb.String()
}

// Result is the outcome of covering one basic block.
type Result struct {
	Best *Solution
	// AssignmentsExplored counts the complete assignments covered in
	// detail.
	AssignmentsExplored int
	// PrunedAssignments counts assignments skipped by branch-and-bound
	// because their admissible lower bound already exceeded the
	// incumbent cost.
	PrunedAssignments int
	// DAG is the Split-Node DAG the covering worked from.
	DAG *sndag.DAG
	// PrunedStores counts stores removed before covering because
	// Options.LiveOut proved them dead past the block.
	PrunedStores int
	// PeepholeSaved counts instructions a post-covering pass already
	// removed from Best: zero for a fresh covering, the peephole's
	// saving for a finished schedule read back from a persistent tier.
	PeepholeSaved int
}

// CoverBlock runs the full concurrent code-generation step of Sec. IV on
// one basic block: build the Split-Node DAG, explore functional-unit
// assignments, and cover each selected assignment with a minimal-cost
// set of maximal groupings; the cheapest covering wins.
func CoverBlock(block *ir.Block, m *isdl.Machine, opts Options) (*Result, error) {
	d, pruned, err := coveredDAG(block, m, opts)
	if err != nil {
		return nil, err
	}
	res, err := CoverDAG(d, opts)
	if res != nil {
		res.PrunedStores = pruned
	}
	return res, err
}

// coveredDAG prunes the stores opts.LiveOut proves dead past the block
// and builds the Split-Node DAG of what is left, returning the number
// of stores pruned.
func coveredDAG(block *ir.Block, m *isdl.Machine, opts Options) (*sndag.DAG, int, error) {
	pruned := 0
	if opts.LiveOut != nil {
		block, pruned = dataflow.PruneBlock(block, opts.LiveOut)
	}
	d, err := sndag.Build(block, m)
	return d, pruned, err
}

// maxKeptGraphs is the largest assignment count for which CoverDAG
// keeps each lower-bound graph for its assignment's covering (above the
// default beam width of 16).
const maxKeptGraphs = 64

// CoverDAG is CoverBlock for a pre-built Split-Node DAG.
//
// Assignments are covered best-first by an admissible lower bound
// (assignmentLowerBound) with branch-and-bound pruning: once an
// incumbent solution exists, any assignment whose bound strictly
// exceeds the incumbent cost is skipped. The winner is identical to the
// original first-to-last scan — ties on (cost, spill count) still go to
// the assignment with the lowest exploration index, and pruning only
// discards assignments that cannot win even a tie.
func CoverDAG(d *sndag.DAG, opts Options) (*Result, error) {
	assigns := exploreAssignments(d, opts)
	if len(assigns) == 0 {
		return nil, fmt.Errorf("cover: no functional-unit assignment found for block %s", d.Block.Name)
	}
	res := &Result{DAG: d}

	// Lower-bound prepass. The bound only reads its graph, so with few
	// assignments (the default beam) each graph is kept for the clique
	// covering of its assignment, which schedules it once. With more,
	// holding one graph per assignment would bloat exhaustive runs, so
	// they are discarded and each covered assignment rebuilds.
	type candidate struct {
		idx int // original exploreAssignments index
		a   *Assignment
		lb  int
		g   *graph // the bound's graph, when kept
		err error  // buildGraph failure, fatal for this assignment
	}
	keep := len(assigns) <= maxKeptGraphs
	cands := make([]candidate, len(assigns))
	for i, a := range assigns {
		cands[i] = candidate{idx: i, a: a}
		if g, err := buildGraph(d, a, opts); err != nil {
			cands[i].err = err
		} else {
			cands[i].lb = assignmentLowerBound(g)
			if keep {
				cands[i].g = g
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].lb != cands[j].lb {
			return cands[i].lb < cands[j].lb
		}
		return cands[i].idx < cands[j].idx
	})

	var firstErr error
	firstErrIdx := len(assigns)
	bestIdx := len(assigns)
	for i := range cands {
		c := cands[i]
		cands[i].g = nil // covered at most once; let it go after
		if c.err != nil {
			// Transfer routing failed; ListSchedule shares buildGraph, so
			// covering this assignment cannot succeed either.
			if c.idx < firstErrIdx {
				firstErr, firstErrIdx = c.err, c.idx
			}
			continue
		}
		if res.Best != nil && c.lb > res.Best.Cost() {
			res.PrunedAssignments++
			if opts.Trace != nil {
				opts.Trace.logf("pruned assignment %d (lower bound %d > best %d)", c.idx, c.lb, res.Best.Cost())
			}
			continue
		}
		if opts.Trace != nil {
			opts.Trace.logf("covering assignment %d (heuristic cost %d, lower bound %d)", c.idx, c.a.HeurCost, c.lb)
		}
		sol, err := coverAssignment(d, c.a, c.g, opts)
		if err != nil {
			if c.idx < firstErrIdx {
				firstErr, firstErrIdx = err, c.idx
			}
			continue
		}
		res.AssignmentsExplored++
		if res.Best == nil || sol.Cost() < res.Best.Cost() ||
			(sol.Cost() == res.Best.Cost() && (sol.SpillCount < res.Best.SpillCount ||
				(sol.SpillCount == res.Best.SpillCount && c.idx < bestIdx))) {
			res.Best = sol
			bestIdx = c.idx
		}
	}
	if res.Best == nil {
		// Register files too tight for the clique coverer: fall back to
		// fully serial memory-resident code, which the assignment filter
		// guarantees is schedulable.
		sol, err := serialFallback(d, assigns[0], opts)
		if err != nil {
			if firstErr != nil {
				return nil, firstErr
			}
			return nil, fmt.Errorf("cover: all assignments failed for block %s: %w", d.Block.Name, err)
		}
		if vErr := sol.Verify(); vErr != nil {
			if firstErr != nil {
				return nil, fmt.Errorf("%w (serial fallback also invalid: %v)", firstErr, vErr)
			}
			return nil, vErr
		}
		if opts.Trace != nil {
			opts.Trace.logf("clique covering failed (%v); serial fallback: %d instructions", firstErr, sol.Cost())
		}
		res.Best = sol
		res.AssignmentsExplored++
	}
	return res, nil
}

// coverAssignment builds the solution graph for one assignment, inserts
// the required transfers, and runs the greedy clique covering. A small
// schedule portfolio improves robustness: the clique covering
// occasionally loses to a plain ready-list schedule on long accumulation
// chains (maximal groupings bias it toward width over depth), so the
// list schedule always competes; with the level-window heuristic
// disabled (heuristics-off mode) the windowed covering competes too, so
// the exhaustive candidate set is a strict superset of the heuristic one.
//
// The window reaches the greedy covering only through its parallelism
// matrix: the initial groupings, and the groupings rebuilt after a
// spill. So when the unwindowed covering succeeded without spilling and
// the windowed matrix is the same, the windowed covering would repeat it
// step for step, and it is skipped.
//
// g, when not nil, is a's solution graph, fresh from buildGraph and not
// yet scheduled; otherwise coverAssignment builds it.
func coverAssignment(d *sndag.DAG, a *Assignment, g *graph, opts Options) (*Solution, error) {
	var pm *bitset.Matrix
	if g == nil {
		var err error
		if g, pm, err = cliqueGraph(d, a, opts); err != nil {
			// buildGraph ignores the level window, so the windowed
			// covering and ListSchedule would fail the same way.
			return nil, err
		}
	} else {
		pm = graphMatrix(g, opts)
	}
	// The list schedule gets its own copy: the clique covering mutates g.
	lg := g.clone()
	best, firstErr := cliqueCover(d, a, g, pm, opts)
	if opts.LevelWindow < 0 {
		windowed := opts
		windowed.LevelWindow = DefaultOptions().LevelWindow
		if wg, wpm, err := cliqueGraph(d, a, windowed); err == nil {
			if best != nil && best.SpillCount == 0 && pm != nil && pm.Equal(wpm) {
				opts.Trace.logf("windowed covering skipped: matrix unchanged")
			} else if sol, err := cliqueCover(d, a, wg, wpm, windowed); err == nil {
				best = betterSolution(best, sol)
			}
		}
	}
	if ls, err := listSchedule(d, a, lg, opts); err == nil {
		best = betterSolution(best, ls)
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

func betterSolution(a, b *Solution) *Solution {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if b.Cost() < a.Cost() || (b.Cost() == a.Cost() && b.SpillCount < a.SpillCount) {
		return b
	}
	return a
}

// cliqueGraph builds the solution graph of assignment a and its
// parallelism matrix under opts.LevelWindow (nil for an empty graph).
func cliqueGraph(d *sndag.DAG, a *Assignment, opts Options) (*graph, *bitset.Matrix, error) {
	g, err := buildGraph(d, a, opts)
	if err != nil {
		return nil, nil, err
	}
	return g, graphMatrix(g, opts), nil
}

// graphMatrix is the parallelism matrix of g under opts.LevelWindow
// (nil for an empty graph).
func graphMatrix(g *graph, opts Options) *bitset.Matrix {
	if len(g.nodes) == 0 {
		return nil
	}
	return parallelMatrix(g.nodes, g.ix, opts.LevelWindow)
}

// cliqueCover runs the greedy clique covering on a fresh graph g from
// cliqueGraph, starting from the maximal groupings of its matrix pm.
func cliqueCover(d *sndag.DAG, a *Assignment, g *graph, pm *bitset.Matrix, opts Options) (*Solution, error) {
	sched := newScheduler(g, opts)
	if pm != nil {
		sched.initialCliques = cliquesFromMatrix(g.nodes, pm, g.machine, opts.CliqueBudget, sched.cliqueSet())
	}
	if err := sched.run(); err != nil {
		return nil, err
	}
	return &Solution{
		Block:        d.Block,
		Machine:      d.Machine,
		Assignment:   a,
		Instrs:       sched.instrs,
		SpillCount:   sched.spillCount,
		ExternalUses: g.externalUses,
	}, nil
}

// CanMove reports whether moving the scheduled node n into instruction
// j keeps every Verify condition that such a move can break:
//
//   - each operand predecessor p completes in time: pos[p] + latency(p) <= j;
//   - each ordering predecessor p issues strictly earlier: pos[p] < j;
//   - instruction j plus n uses no functional unit twice;
//   - instruction j plus n is a legal grouping.
//
// pos maps every scheduled node to its instruction index before the
// move. Each condition is one Verify checks on the moved schedule, so
// false implies the move fails Verify; true leaves register pressure and
// everything else to Verify. It allocates nothing, which makes it the
// cheap first test of a peephole trial move.
func (s *Solution) CanMove(n *SNode, j int, pos map[*SNode]int) bool {
	for _, p := range n.Preds {
		if pp, ok := pos[p]; !ok || pp+nodeLatency(s.Machine, p) > j {
			return false
		}
	}
	for _, p := range n.OrdPreds {
		if pp, ok := pos[p]; !ok || pp >= j {
			return false
		}
	}
	if n.Kind == OpNode {
		for _, o := range s.Instrs[j] {
			if o.Kind == OpNode && o.Unit == n.Unit {
				return false
			}
		}
	}
	return legalWith(s.Instrs[j], n, s.Machine)
}

// Verify checks solution invariants: every instruction is a legal
// grouping, dependences are respected by the schedule, and per-bank
// register pressure never exceeds the bank size. It is used heavily in
// tests and by the simulator harness. Its per-node state lives in
// slices indexed by each distinct scheduled node's slot (see
// scheduleSlots), private to the call.
func (s *Solution) Verify() error {
	nodes := 0
	for _, instr := range s.Instrs {
		nodes += len(instr)
	}
	slots := newScheduleSlots(s.Instrs, nodes)
	pos := make([]int32, len(slots.nodes)) // by slot: the node's instruction
	for i, instr := range s.Instrs {
		if !legalGroup(instr, s.Machine) {
			return fmt.Errorf("instr %d is not a legal grouping: %s", i, formatClique(instr))
		}
		for k, n := range instr {
			if n.Kind == OpNode {
				for _, m := range instr[:k] {
					if m.Kind == OpNode && m.Unit == n.Unit {
						return fmt.Errorf("instr %d uses unit %s twice", i, n.Unit)
					}
				}
			}
			sn, _ := slots.of(n)
			pos[sn] = int32(i)
		}
	}
	// Dependences strictly ordered, separated by the producer's latency.
	for _, instr := range s.Instrs {
		for _, n := range instr {
			sn, _ := slots.of(n)
			at := int(pos[sn])
			for _, p := range n.Preds {
				sp, ok := slots.of(p)
				if !ok {
					return fmt.Errorf("%s depends on unscheduled %s", n, p)
				}
				if pp := int(pos[sp]); pp+nodeLatency(s.Machine, p) > at {
					return fmt.Errorf("%s at %d issues before its operand %s (at %d, latency %d) completes",
						n, at, p, pp, nodeLatency(s.Machine, p))
				}
			}
			for _, p := range n.OrdPreds {
				sp, ok := slots.of(p)
				if !ok {
					return fmt.Errorf("%s order-depends on unscheduled %s", n, p)
				}
				if pp := int(pos[sp]); pp >= at {
					return fmt.Errorf("%s at %d not after ordering pred %s at %d", n, at, p, pp)
				}
			}
		}
	}
	// Register pressure per bank, replayed over the schedule. Every
	// operand is scheduled (checked above), so each has a slot.
	pending := make([]int32, len(slots.nodes)) // by slot
	for _, n := range slots.nodes {
		if _, ok := n.DefLoc(); ok {
			cnt := s.ExternalUses[n]
			for _, u := range n.Succs {
				if _, scheduled := slots.of(u); scheduled {
					cnt++
				}
			}
			sn, _ := slots.of(n)
			pending[sn] = int32(cnt)
		}
	}
	live := make(map[string]int, len(s.Machine.Units)) // unit banks only
	for i, instr := range s.Instrs {
		for _, n := range instr {
			for _, p := range n.Preds {
				sp, _ := slots.of(p)
				pending[sp]--
				if pending[sp] == 0 {
					if loc, ok := p.DefLoc(); ok && loc.Kind == isdl.LocUnit {
						live[loc.Name]--
					}
				}
			}
		}
		for _, n := range instr {
			sn, _ := slots.of(n)
			if loc, ok := n.DefLoc(); ok && loc.Kind == isdl.LocUnit && pending[sn] > 0 {
				live[loc.Name]++
				if size := s.Machine.BankSize(loc.Name); size > 0 && live[loc.Name] > size {
					return fmt.Errorf("instr %d overflows bank %s: %d live > %d regs",
						i, loc.Name, live[loc.Name], size)
				}
			}
		}
	}
	return nil
}

// scheduleSlots numbers the distinct nodes of a schedule densely, in
// first-appearance order. Lookups go through a slice indexed by
// SNode.ID, checked against the node pointer; a schedule whose IDs are
// negative, repeated across distinct nodes, or too sparse for such a
// slice (a decoded payload can carry any IDs) falls back to a
// pointer-keyed map, so slots always identify nodes exactly as pointers
// do.
type scheduleSlots struct {
	nodes []*SNode // slot -> node
	byID  []int32  // SNode.ID -> slot+1, 0 when absent
	byPtr map[*SNode]int32
}

func newScheduleSlots(instrs [][]*SNode, total int) *scheduleSlots {
	x := &scheduleSlots{nodes: make([]*SNode, 0, total)}
	minID, maxID := 0, -1
	for _, instr := range instrs {
		for _, n := range instr {
			minID, maxID = min(minID, n.ID), max(maxID, n.ID)
		}
	}
	if minID >= 0 && maxID < 4*total+64 {
		x.byID = make([]int32, maxID+1)
		if x.fill(instrs) {
			return x
		}
		x.byID, x.nodes = nil, x.nodes[:0]
	}
	x.byPtr = make(map[*SNode]int32, total)
	x.fill(instrs)
	return x
}

// fill assigns slots; it reports false when two distinct nodes share an
// ID in byID mode.
func (x *scheduleSlots) fill(instrs [][]*SNode) bool {
	for _, instr := range instrs {
		for _, n := range instr {
			if _, ok := x.of(n); ok {
				continue
			}
			slot := int32(len(x.nodes))
			if x.byPtr != nil {
				x.byPtr[n] = slot
			} else if x.byID[n.ID] != 0 {
				return false
			} else {
				x.byID[n.ID] = slot + 1
			}
			x.nodes = append(x.nodes, n)
		}
	}
	return true
}

// of returns n's slot, and false when n is not in the schedule.
func (x *scheduleSlots) of(n *SNode) (int32, bool) {
	if x.byPtr != nil {
		slot, ok := x.byPtr[n]
		return slot, ok
	}
	if n.ID >= 0 && n.ID < len(x.byID) {
		if slot := x.byID[n.ID] - 1; slot >= 0 && x.nodes[slot] == n {
			return slot, true
		}
	}
	return -1, false
}
