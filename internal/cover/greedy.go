package cover

import (
	"fmt"
	"sort"

	"aviv/internal/isdl"
)

// DisablePooling turns off the scheduler's scratch-buffer and in-place
// reuse so every internal computation allocates fresh memory. Emitted
// programs are byte-identical either way — the corpus property tests
// compile under both settings — the switch exists purely to expose
// buffer-reuse bugs.
var DisablePooling = false

// pendingAbsent marks a pending slot that holds no count: the node does
// not define a value, or it was removed. It is negative enough that the
// (rare) blind decrements of the schedule loop can never raise a slot
// back to zero.
const pendingAbsent = int32(-1 << 30)

// bankOver names a register bank exceeding its size, and by how much.
type bankOver struct {
	bank string
	by   int
}

// scheduler runs the greedy minimum-cost clique covering of Sec. IV-D:
// repeatedly pick the maximal grouping that covers the most ready nodes
// within the register-bank bounds, breaking ties with a lookahead
// estimate, and fall back to spilling a live value when register
// pressure blocks all progress.
//
// Per-node state is held in dense slices indexed by SNode.ID (the graph
// assigns IDs contiguously; grow extends the slices after spills add
// nodes), and per-bank state in slices indexed by an interned bank
// number — the covering inner loops run over these instead of maps.
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

	// Interned register banks: live counts occupied registers per bank.
	bankIdx   map[string]int
	bankNames []string
	bankSizes []int
	live      []int

	instrs     [][]*SNode
	spillCount int

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
	goalBank string

	// Scratch state, reused across calls (see DisablePooling). The
	// epoch-stamped arrays make "clear" an integer increment; mark/decCnt
	// are per node, bankMark/bankDelta per interned bank.
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
	unitCnt    map[string]int
	busCnt     map[string]int
	seenKeys   map[string]bool
	idsBuf     []int
	keyBuf     []byte
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
		bankIdx: make(map[string]int),
	}
	for i := range s.pending {
		s.pending[i] = pendingAbsent
	}
	for _, bank := range g.machine.Banks() {
		s.internBank(bank)
	}
	for _, nd := range g.nodes {
		s.initPending(nd)
	}
	return s
}

// internBank returns the dense index of a bank name, registering it on
// first sight.
func (s *scheduler) internBank(name string) int {
	if i, ok := s.bankIdx[name]; ok {
		return i
	}
	i := len(s.bankNames)
	s.bankIdx[name] = i
	s.bankNames = append(s.bankNames, name)
	s.bankSizes = append(s.bankSizes, s.g.bankSize(name))
	s.live = append(s.live, 0)
	s.bankMark = append(s.bankMark, 0)
	s.bankDelta = append(s.bankDelta, 0)
	return i
}

// grow extends the per-node slices to cover nodes added by spilling.
func (s *scheduler) grow() {
	for len(s.pending) < s.g.nextID {
		s.pending = append(s.pending, pendingAbsent)
		s.covered = append(s.covered, false)
		s.removed = append(s.removed, false)
		s.pos = append(s.pos, 0)
		s.mark = append(s.mark, 0)
		s.decCnt = append(s.decCnt, 0)
	}
}

func (s *scheduler) initPending(n *SNode) {
	if _, defines := n.DefLoc(); defines {
		s.pending[n.ID] = int32(len(n.Succs) + s.g.externalUses[n])
	}
}

func (s *scheduler) uncoveredNodes() []*SNode {
	var out []*SNode
	if !DisablePooling {
		out = s.uncBuf[:0]
	}
	for _, n := range s.g.nodes {
		if !s.covered[n.ID] && !s.removed[n.ID] {
			out = append(out, n)
		}
	}
	if !DisablePooling {
		s.uncBuf = out
	}
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
		if t := int(s.pos[p.ID]) + s.g.latencyOf(p); t > at {
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
	for _, p := range dec {
		if s.pending[p.ID]-s.decCnt[p.ID] <= 0 {
			if loc, ok := p.DefLoc(); ok && loc.Kind == isdl.LocUnit {
				bi := s.internBank(loc.Name)
				touch(bi)
				s.bankDelta[bi]--
			}
		}
	}
	for _, n := range set {
		if loc, ok := n.DefLoc(); ok && loc.Kind == isdl.LocUnit && s.pending[n.ID] > 0 {
			bi := s.internBank(loc.Name)
			touch(bi)
			s.bankDelta[bi]++
		}
	}
	s.bankTouch = touched
	var out []bankOver
	if !DisablePooling {
		out = s.overBuf[:0]
	}
	for _, bi := range touched {
		if s.live[bi]+s.bankDelta[bi] > s.bankSizes[bi] {
			out = append(out, bankOver{s.bankNames[bi], s.live[bi] + s.bankDelta[bi] - s.bankSizes[bi]})
		}
	}
	// Banks are few: insertion sort keeps this allocation-free.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].bank < out[j-1].bank; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if !DisablePooling {
		s.overBuf = out
	}
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
		worst, worstBy := "", 0
		for _, bo := range over {
			if bo.by > worstBy || (bo.by == worstBy && bo.bank < worst) || worst == "" {
				worst, worstBy = bo.bank, bo.by
			}
		}
		dropped := false
		for i := len(set) - 1; i >= 0; i-- {
			if loc, ok := set[i].DefLoc(); ok && loc.Kind == isdl.LocUnit && loc.Name == worst {
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
	loc, defines := n.DefLoc()
	if !defines || loc.Kind != isdl.LocUnit || loc.Name != s.goalBank {
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
// remaining uncovered nodes (Sec. IV-D's tie-breaking cost).
func (s *scheduler) lookahead(set []*SNode) int {
	s.epoch++
	e := s.epoch
	for _, n := range set {
		s.mark[n.ID] = e
	}
	if s.unitCnt == nil || DisablePooling {
		s.unitCnt = make(map[string]int)
		s.busCnt = make(map[string]int)
	} else {
		clear(s.unitCnt)
		clear(s.busCnt)
	}
	unitCnt, busCnt := s.unitCnt, s.busCnt
	for _, n := range s.g.nodes {
		if s.covered[n.ID] || s.removed[n.ID] || s.mark[n.ID] == e {
			continue
		}
		if n.Kind == OpNode {
			unitCnt[n.Unit]++
		} else {
			busCnt[n.Step.Bus]++
		}
	}
	est := 0
	for _, c := range unitCnt {
		if c > est {
			est = c
		}
	}
	for bus, c := range busCnt {
		w := 1
		if b := s.g.machine.Bus(bus); b != nil {
			w = b.Width
		}
		need := (c + w - 1) / w
		if need > est {
			est = need
		}
	}
	return est
}

// schedule commits the set as the next instruction and updates liveness.
// An empty set is a NOP: it advances the cycle so a multi-cycle result
// can complete (the machine has no interlocks). The set is copied, so
// callers may pass (and keep reusing) scratch buffers.
func (s *scheduler) schedule(set []*SNode) {
	if len(set) > 0 {
		set = append(make([]*SNode, 0, len(set)), set...)
	}
	sort.Slice(set, func(i, j int) bool { return set[i].ID < set[j].ID })
	cycle := len(s.instrs)
	s.instrs = append(s.instrs, set)
	for _, n := range set {
		s.covered[n.ID] = true
		s.pos[n.ID] = int32(cycle)
	}
	for _, n := range set {
		for _, p := range n.Preds {
			s.pending[p.ID]--
			if s.pending[p.ID] == 0 {
				if loc, ok := p.DefLoc(); ok && loc.Kind == isdl.LocUnit {
					s.live[s.internBank(loc.Name)]--
				}
			}
		}
	}
	for _, n := range set {
		if loc, ok := n.DefLoc(); ok && loc.Kind == isdl.LocUnit && s.pending[n.ID] > 0 {
			s.live[s.internBank(loc.Name)]++
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
		var rc []*SNode
		if !DisablePooling {
			rc = s.rcBufs[s.rcWhich][:0]
		}
		for _, n := range c {
			if s.issueable(n) && s.allowedByGoal(n) && (!gated || s.useful(n)) {
				rc = append(rc, n)
			}
		}
		if !DisablePooling {
			s.rcBufs[s.rcWhich] = rc
		}
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
			if !DisablePooling {
				s.rcWhich ^= 1
			}
			if s.opts.Lookahead {
				bestLook = s.lookahead(rc)
			}
			continue
		}
		// Tie: lookahead estimate decides (Sec. IV-D).
		if s.opts.Lookahead {
			if look := s.lookahead(rc); look < bestLook {
				best, bestLook = rc, look
				if !DisablePooling {
					s.rcWhich ^= 1
				}
			}
		}
	}
	return best
}

// run covers all solution-graph nodes, returning the instruction schedule.
func (s *scheduler) run() error {
	cliques := s.initialCliques
	if cliques == nil {
		cliques = buildCliques(s.uncoveredNodes(), s.g.machine, s.opts)
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
			cliques = buildCliques(s.uncoveredNodes(), s.g.machine, s.opts)
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
	var out [][]*SNode
	if !DisablePooling {
		out = cliques[:0]
	}
	for _, c := range cliques {
		var kept []*SNode
		if !DisablePooling {
			kept = c[:0]
		}
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

// dedupeCliquesInPlace is dedupeCliques with the key set and scratch
// buffers reused across calls (one shrink per scheduled instruction).
func (s *scheduler) dedupeCliquesInPlace(cs [][]*SNode) [][]*SNode {
	if s.seenKeys == nil || DisablePooling {
		s.seenKeys = make(map[string]bool, len(cs))
	} else {
		clear(s.seenKeys)
	}
	out := cs[:0]
	for _, c := range cs {
		key := cliqueKey(c, &s.idsBuf, &s.keyBuf)
		if !s.seenKeys[string(key)] {
			s.seenKeys[string(key)] = true
			out = append(out, c)
		}
	}
	return out
}
