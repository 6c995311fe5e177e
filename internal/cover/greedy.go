package cover

import (
	"fmt"
	"sort"
)

// pendingAbsent marks a pending slot that holds no count: the node does
// not define a value, or it was removed. It is negative enough that the
// (rare) blind decrements of the schedule loop can never raise a slot
// back to zero.
const pendingAbsent = int32(-1 << 30)

// bankOver names a register bank exceeding its size, and by how much.
type bankOver struct {
	bank string
	idx  int32 // the bank's nodeIndex number
	by   int
}

// lookaheadProbe, when set, sees every lookahead estimate with the set
// it was computed for, before selectBest uses it. Tests set it to check
// the incremental counts against a recount; it is nil otherwise.
var lookaheadProbe func(s *scheduler, set []*SNode, est int)

// scheduler runs the greedy minimum-cost clique covering of Sec. IV-D:
// repeatedly pick the maximal grouping that covers the most ready nodes
// within the register-bank bounds, breaking ties with a lookahead
// estimate, and fall back to spilling a live value when register
// pressure blocks all progress.
//
// Per-node state is held in dense slices indexed by SNode.ID (the graph
// assigns IDs contiguously; grow extends the slices after spills add
// nodes), and per-bank and per-resource state in slices indexed by the
// graph's nodeIndex numbers — the covering inner loops run over these
// instead of maps.
type scheduler struct {
	g    *graph
	opts Options

	// pending counts, per value-defining node, the unscheduled consumers
	// of its value plus external (past-block) uses. When it reaches zero
	// the register holding the value is freed. Slots of non-defining or
	// removed nodes hold pendingAbsent.
	pending []int32

	covered []bool
	removed []bool
	// pos records the instruction index each covered node issued at, for
	// latency separation on machines with multi-cycle operations.
	pos []int32

	// live counts occupied registers per bank.
	live []int
	// remaining counts, per resource, the uncovered nodes that are not
	// removed: schedule decrements it, a spill recounts it. lookahead
	// reads it instead of rescanning the graph.
	remaining []int

	instrs     [][]*SNode
	spillCount int
	// instrSlab holds the copies schedule makes of its instructions,
	// carved out with their capacity clipped. The first slab fits every
	// node of the graph; one that fills up (after spills) is replaced.
	instrSlab []*SNode

	// initialCliques, when non-nil, is the first grouping inventory; the
	// caller computed it from a parallelism matrix it also compares
	// across level windows. Rebuilds after spills always go through
	// buildCliques.
	initialCliques [][]*SNode

	// goal, when set, is the pressure-blocked node the last spill freed a
	// register for; until it is covered, no other node may define a value
	// into goalBank. Without the reservation the freed register is
	// snapped up (typically by the reload of the value just spilled) and
	// the scheduler ping-pongs.
	goal     *SNode
	goalBank int32

	// Scratch state, reused across calls. The epoch-stamped arrays make
	// "clear" an integer increment; mark/decCnt are per node,
	// bankMark/bankDelta per bank.
	epoch      int32
	mark       []int32
	decCnt     []int32
	decNodes   []*SNode
	bankMark   []int32
	bankDelta  []int
	bankTouch  []int
	overBuf    []bankOver
	rcBufs     [2][]*SNode
	rcWhich    int
	uncBuf     []*SNode
	stackBuf   []*SNode
	blockedBuf []*SNode
	seen       cliqueSet
	single     [1]*SNode
}

func newScheduler(g *graph, opts Options) *scheduler {
	n := g.nextID
	s := &scheduler{
		g:       g,
		opts:    opts,
		pending: make([]int32, n),
		covered: make([]bool, n),
		removed: make([]bool, n),
		pos:     make([]int32, n),
		mark:    make([]int32, n),
		decCnt:  make([]int32, n),
	}
	for i := range s.pending {
		s.pending[i] = pendingAbsent
	}
	s.growBanks()
	for _, nd := range g.nodes {
		s.initPending(nd)
	}
	s.recountRemaining()
	return s
}

// growBanks sizes the per-bank and per-resource slices to the graph's
// interned banks and resources (fixed up front; a spill extends them
// only if a new node names something the machine does not declare).
func (s *scheduler) growBanks() {
	ix := s.g.ix
	for len(s.live) < len(ix.bankNames) {
		s.live = append(s.live, 0)
		s.bankMark = append(s.bankMark, 0)
		s.bankDelta = append(s.bankDelta, 0)
	}
	for len(s.remaining) < len(ix.width) {
		s.remaining = append(s.remaining, 0)
	}
}

// grow extends the per-node slices, and the graph's index, to cover
// nodes added by spilling.
func (s *scheduler) grow() {
	old := len(s.pending)
	if old == s.g.nextID {
		return
	}
	s.g.ix.addAll(s.g.nodes[old:])
	s.growBanks()
	for len(s.pending) < s.g.nextID {
		s.pending = append(s.pending, pendingAbsent)
		s.covered = append(s.covered, false)
		s.removed = append(s.removed, false)
		s.pos = append(s.pos, 0)
		s.mark = append(s.mark, 0)
		s.decCnt = append(s.decCnt, 0)
	}
}

// recountRemaining rebuilds the per-resource counts of uncovered,
// unremoved nodes from scratch (after a spill added and removed nodes).
func (s *scheduler) recountRemaining() {
	clear(s.remaining)
	res := s.g.ix.res
	for _, n := range s.g.nodes {
		if !s.covered[n.ID] && !s.removed[n.ID] {
			s.remaining[res[n.ID]]++
		}
	}
}

func (s *scheduler) initPending(n *SNode) {
	if _, defines := n.DefLoc(); defines {
		s.pending[n.ID] = int32(len(n.Succs) + s.g.externalUses[n])
	}
}

func (s *scheduler) uncoveredNodes() []*SNode {
	out := s.uncBuf[:0]
	for _, n := range s.g.nodes {
		if !s.covered[n.ID] && !s.removed[n.ID] {
			out = append(out, n)
		}
	}
	s.uncBuf = out
	return out
}

func (s *scheduler) ready(n *SNode) bool {
	if s.covered[n.ID] || s.removed[n.ID] {
		return false
	}
	for _, p := range n.Preds {
		if !s.covered[p.ID] {
			return false
		}
	}
	for _, p := range n.OrdPreds {
		if !s.covered[p.ID] {
			return false
		}
	}
	return true
}

// availableAt returns the earliest cycle the node may issue given its
// producers' latencies (call only when ready, i.e. all preds covered).
// Transfers and ordering edges separate by one cycle; multi-cycle
// operations by their latency.
func (s *scheduler) availableAt(n *SNode) int {
	at := 0
	for _, p := range n.Preds {
		if t := int(s.pos[p.ID] + s.g.ix.lat[p.ID]); t > at {
			at = t
		}
	}
	for _, p := range n.OrdPreds {
		if t := int(s.pos[p.ID]) + 1; t > at {
			at = t
		}
	}
	return at
}

// issueable reports whether n can go into the instruction being formed
// right now: dependences covered and latencies elapsed.
func (s *scheduler) issueable(n *SNode) bool {
	return s.ready(n) && s.availableAt(n) <= len(s.instrs)
}

// latencyPending reports whether some uncovered node is only waiting for
// a producer's latency to elapse (so a NOP advances the machine).
func (s *scheduler) latencyPending() bool {
	for _, n := range s.g.nodes {
		if s.ready(n) && s.availableAt(n) > len(s.instrs) {
			return true
		}
	}
	return false
}

// feasible decides whether scheduling the set as one instruction keeps
// every register bank within its size: registers freed by last uses are
// credited, registers taken by new values are debited.
func (s *scheduler) feasible(set []*SNode) bool {
	return len(s.overfullBanks(set)) == 0
}

// overfullBanks returns the banks that would exceed their size if the
// set were scheduled now, sorted by bank name. The result aliases a
// scratch buffer: it is valid until the next overfullBanks call.
//
// A bank is reported exactly when it appears in the set's pressure
// delta (even a net-zero delta) and its live count would exceed its
// size — the spill path relies on "appeared but not attributable to a
// producer in the set" meaning the bank was already over.
func (s *scheduler) overfullBanks(set []*SNode) []bankOver {
	s.epoch++
	e := s.epoch
	dec := s.decNodes[:0]
	for _, n := range set {
		for _, p := range n.Preds {
			if s.mark[p.ID] != e {
				s.mark[p.ID] = e
				s.decCnt[p.ID] = 0
				dec = append(dec, p)
			}
			s.decCnt[p.ID]++
		}
	}
	s.decNodes = dec
	touched := s.bankTouch[:0]
	touch := func(bi int) {
		if s.bankMark[bi] != e {
			s.bankMark[bi] = e
			s.bankDelta[bi] = 0
			touched = append(touched, bi)
		}
	}
	bank := s.g.ix.bank
	for _, p := range dec {
		if s.pending[p.ID]-s.decCnt[p.ID] <= 0 {
			if bi := bank[p.ID]; bi >= 0 {
				touch(int(bi))
				s.bankDelta[bi]--
			}
		}
	}
	for _, n := range set {
		if bi := bank[n.ID]; bi >= 0 && s.pending[n.ID] > 0 {
			touch(int(bi))
			s.bankDelta[bi]++
		}
	}
	s.bankTouch = touched
	out := s.overBuf[:0]
	ix := s.g.ix
	for _, bi := range touched {
		if s.live[bi]+s.bankDelta[bi] > ix.bankSizes[bi] {
			out = append(out, bankOver{ix.bankNames[bi], int32(bi), s.live[bi] + s.bankDelta[bi] - ix.bankSizes[bi]})
		}
	}
	// Banks are few: insertion sort keeps this allocation-free.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].bank < out[j-1].bank; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	s.overBuf = out
	return out
}

// trimToFeasible removes value-producing nodes from the set until the
// register bounds hold, preferring to drop producers into the most
// overfull banks. It shrinks the set in place (callers own the slice)
// and may return an empty set.
func (s *scheduler) trimToFeasible(set []*SNode) []*SNode {
	for len(set) > 0 {
		over := s.overfullBanks(set)
		if len(over) == 0 {
			return set
		}
		// Pick the most overfull bank and drop one producer into it.
		worst := over[0]
		for _, bo := range over[1:] {
			if bo.by > worst.by || (bo.by == worst.by && bo.bank < worst.bank) {
				worst = bo
			}
		}
		dropped := false
		for i := len(set) - 1; i >= 0; i-- {
			if s.g.ix.bank[set[i].ID] == worst.idx {
				set = append(set[:i], set[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			// Overflow not attributable to a producer in the set (can
			// only happen when the bank was already over, which the
			// spill path handles); give up on this clique.
			return nil
		}
	}
	return set
}

// allowedByGoal enforces the post-spill bank reservation: while a goal is
// pending, only the goal itself and its direct dependencies may define a
// value into the reserved bank.
func (s *scheduler) allowedByGoal(n *SNode) bool {
	if s.goal == nil || s.covered[s.goal.ID] || s.removed[s.goal.ID] {
		s.goal = nil
		return true
	}
	if s.g.ix.bank[n.ID] != s.goalBank {
		return true
	}
	if n == s.goal {
		return true
	}
	for _, p := range s.goal.Preds {
		if p == n {
			return true
		}
	}
	return false
}

// useful reports whether scheduling the value-carrying transfer now can
// soon enable a consumer: some consumer's other dependences are already
// covered or at least ready. Eagerly scheduled transfers park values in
// registers long before use, inflating pressure and provoking spill
// ping-pong; the main loop therefore prefers useful transfers and falls
// back to ungated selection only when nothing useful is schedulable.
func (s *scheduler) useful(n *SNode) bool {
	if n.Kind == OpNode || n.Kind == StoreNode {
		return true // ops do real work; stores only relieve pressure
	}
	for _, w := range n.Succs {
		ok := true
		for _, p := range w.Preds {
			if p != n && !s.covered[p.ID] && !s.ready(p) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, p := range w.OrdPreds {
			if !s.covered[p.ID] && !s.ready(p) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// lookahead estimates the number of instructions still needed after
// hypothetically scheduling the set: a resource lower bound over the
// remaining uncovered nodes (Sec. IV-D's tie-breaking cost) — the
// largest count of them on one unit, or on one bus divided by its
// width. The counts are the scheduler's running per-resource tallies
// with the set's own members taken out for the call, so a candidate
// costs O(|set| + resources), not a scan of the graph. The set's
// members are uncovered and distinct (selectBest builds it from ready
// clique members).
func (s *scheduler) lookahead(set []*SNode) int {
	res, rem := s.g.ix.res, s.remaining
	for _, n := range set {
		rem[res[n.ID]]--
	}
	est := 0
	for r, c := range rem {
		w := s.g.ix.width[r]
		if need := (c + w - 1) / w; need > est {
			est = need
		}
	}
	for _, n := range set {
		rem[res[n.ID]]++
	}
	if lookaheadProbe != nil {
		lookaheadProbe(s, set, est)
	}
	return est
}

// schedule commits the set as the next instruction and updates liveness.
// An empty set is a NOP: it advances the cycle so a multi-cycle result
// can complete (the machine has no interlocks). The set is copied, so
// callers may pass (and keep reusing) scratch buffers.
func (s *scheduler) schedule(set []*SNode) {
	if len(set) > 0 {
		if cap(s.instrSlab)-len(s.instrSlab) < len(set) {
			n := 16
			if s.instrSlab == nil {
				n = s.g.nextID
			}
			s.instrSlab = make([]*SNode, 0, max(n, len(set)))
		}
		start := len(s.instrSlab)
		s.instrSlab = append(s.instrSlab, set...)
		set = s.instrSlab[start:len(s.instrSlab):len(s.instrSlab)]
	}
	sort.Slice(set, func(i, j int) bool { return set[i].ID < set[j].ID })
	cycle := len(s.instrs)
	s.instrs = append(s.instrs, set)
	ix := s.g.ix
	for _, n := range set {
		s.covered[n.ID] = true
		s.pos[n.ID] = int32(cycle)
		s.remaining[ix.res[n.ID]]--
	}
	for _, n := range set {
		for _, p := range n.Preds {
			s.pending[p.ID]--
			if s.pending[p.ID] == 0 {
				if bi := ix.bank[p.ID]; bi >= 0 {
					s.live[bi]--
				}
			}
		}
	}
	for _, n := range set {
		if bi := ix.bank[n.ID]; bi >= 0 && s.pending[n.ID] > 0 {
			s.live[bi]++
		}
	}
	if s.opts.Trace != nil {
		s.opts.Trace.logf("  instr %d: %s", len(s.instrs)-1, formatClique(set))
	}
}

// selectBest picks the clique whose ready (and, when gated, useful)
// feasible subset covers the most nodes, ties broken by the lookahead
// estimate (Sec. IV-D). Candidate subsets are built in two ping-pong
// scratch buffers: the current best holds one, the candidate under
// construction the other. The returned slice is valid until the second
// next selectBest call (run consumes it immediately via schedule, which
// copies).
func (s *scheduler) selectBest(cliques [][]*SNode, gated bool) []*SNode {
	var best []*SNode
	bestScore, bestLook := -1, 0
	for _, c := range cliques {
		rc := s.rcBufs[s.rcWhich][:0]
		for _, n := range c {
			if s.issueable(n) && s.allowedByGoal(n) && (!gated || s.useful(n)) {
				rc = append(rc, n)
			}
		}
		s.rcBufs[s.rcWhich] = rc
		if len(rc) == 0 {
			continue
		}
		rc = s.trimToFeasible(rc)
		if len(rc) == 0 {
			continue
		}
		score := len(rc)
		if score < bestScore {
			continue
		}
		if score > bestScore {
			best, bestScore = rc, score
			s.rcWhich ^= 1
			if s.opts.Lookahead {
				bestLook = s.lookahead(rc)
			}
			continue
		}
		// Tie: lookahead estimate decides (Sec. IV-D).
		if s.opts.Lookahead {
			if look := s.lookahead(rc); look < bestLook {
				best, bestLook = rc, look
				s.rcWhich ^= 1
			}
		}
	}
	return best
}

// run covers all solution-graph nodes, returning the instruction schedule.
func (s *scheduler) run() error {
	cliques := s.initialCliques
	if cliques == nil {
		cliques = buildCliques(s.uncoveredNodes(), s.g.ix, s.opts, s.cliqueSet())
	}
	if s.opts.Trace != nil {
		s.opts.Trace.logf("generated %d maximal groupings", len(cliques))
		for _, c := range cliques {
			s.opts.Trace.logf("  clique %s", formatClique(c))
		}
	}
	remaining := len(s.uncoveredNodes())
	guard := 0
	spillStreak := 0
	// Bounds fixed to the pre-spill graph size: spilling adds nodes, and
	// a bound that grew with them would never trip on infeasible inputs.
	maxStreak := 2*remaining + 8
	maxGuard := 40*remaining + 200
	maxSpills := 4*remaining + 16
	for remaining > 0 {
		guard++
		if guard > maxGuard {
			return fmt.Errorf("cover: scheduler failed to make progress (%d nodes left)", remaining)
		}
		if s.spillCount > maxSpills {
			return fmt.Errorf("cover: spill thrashing (%d spills for a %d-node graph)", s.spillCount, len(s.g.nodes))
		}
		best := s.selectBest(cliques, true)
		if best == nil {
			// Nothing useful is schedulable; retry without the
			// usefulness gate before resorting to a spill.
			best = s.selectBest(cliques, false)
		}
		if best == nil {
			// Nothing issueable. If some node is only waiting out a
			// producer's latency, a NOP advances the machine.
			if s.latencyPending() {
				s.schedule(nil)
				continue
			}
			// Register pressure blocks every ready node: spill. A bound
			// on consecutive spills catches fundamentally infeasible
			// instances (e.g. a binary op whose two register operands
			// cannot fit a one-register bank) instead of spilling
			// forever.
			spillStreak++
			if spillStreak > maxStreak {
				return fmt.Errorf("cover: register files too small: %d consecutive spills without progress", spillStreak)
			}
			if err := s.spill(); err != nil {
				return err
			}
			cliques = buildCliques(s.uncoveredNodes(), s.g.ix, s.opts, s.cliqueSet())
			remaining = len(s.uncoveredNodes())
			continue
		}
		spillStreak = 0
		s.schedule(best)
		remaining -= len(best)
		// Shrink the remaining cliques (Sec. IV-D).
		cliques = s.shrinkCliques(cliques)
	}
	return nil
}

// shrinkCliques drops covered nodes from every clique and removes the
// duplicates that collapse out, filtering each clique (and the clique
// list itself) in place: the scheduler owns the clique inventory, and
// schedule copies instructions, so nothing downstream aliases these
// backing arrays.
func (s *scheduler) shrinkCliques(cliques [][]*SNode) [][]*SNode {
	out := cliques[:0]
	for _, c := range cliques {
		kept := c[:0]
		for _, n := range c {
			if !s.covered[n.ID] {
				kept = append(kept, n)
			}
		}
		if len(kept) > 0 {
			out = append(out, kept)
		}
	}
	return s.dedupeCliquesInPlace(out)
}

// dedupeCliquesInPlace drops repeated groupings from cs in place,
// keeping the first occurrence of each (one shrink per scheduled
// instruction).
func (s *scheduler) dedupeCliquesInPlace(cs [][]*SNode) [][]*SNode {
	return s.cliqueSet().dedupe(cs)
}

// cliqueSet returns the scheduler's clique dedupe set, reused by every
// enumeration and shrink of its covering.
func (s *scheduler) cliqueSet() *cliqueSet {
	return &s.seen
}
