package cover

import (
	"fmt"
	"sort"

	"aviv/internal/isdl"
)

// spill frees a register in the bank that blocks the most ready nodes by
// storing one live value to data memory and reloading it before its
// remaining consumers (Sec. IV-D, Fig. 9). Data-transfer nodes made
// redundant by the spill (uncovered moves sourcing the spilled value) are
// removed and their consumers rewired to reloads.
func (s *scheduler) spill() error {
	// Collect the ready nodes blocked by register pressure.
	blocked := s.blockedBuf[:0]
	anyReady := false
	for _, n := range s.g.nodes {
		if !s.issueable(n) {
			continue
		}
		anyReady = true
		s.single[0] = n
		if len(s.overfullBanks(s.single[:])) > 0 {
			blocked = append(blocked, n)
		}
	}
	s.blockedBuf = blocked
	if !anyReady {
		return fmt.Errorf("cover: no ready node and %d uncovered (dependency cycle?)", len(s.uncoveredNodes()))
	}
	if len(blocked) == 0 {
		return fmt.Errorf("cover: scheduler blocked but no bank over pressure")
	}
	// Prefer enabling operation nodes (the real work), then by ID for
	// determinism.
	sort.Slice(blocked, func(i, j int) bool {
		oi, oj := blocked[i].Kind == OpNode, blocked[j].Kind == OpNode
		if oi != oj {
			return oi
		}
		return blocked[i].ID < blocked[j].ID
	})

	for _, nb := range blocked {
		s.single[0] = nb
		// overfullBanks returns the banks sorted by name.
		for _, bo := range s.overfullBanks(s.single[:]) {
			bank := bo.bank
			victim := s.pickVictim(bo.idx, nb)
			if victim == nil {
				continue
			}
			if err := s.spillValue(victim, bank, nb); err != nil {
				return err
			}
			s.goal, s.goalBank = nb, bo.idx
			s.spillCount++
			if s.opts.Trace != nil {
				s.opts.Trace.logf("  spill: %s from bank %s (%d pending uses)", victim, bank, s.pending[victim.ID])
			}
			return nil
		}
	}
	return fmt.Errorf("cover: register pressure but no spillable value (bank too small for one instruction)")
}

// pickVictim selects the live value in the bank to spill. A spill keeps
// ready consumers reading the register (the store happens now, eviction
// only once they have consumed it) and rewires the rest to reloads, so a
// useful victim must have at least one distant (non-ready) consumer —
// otherwise the spill frees nothing. Following the paper's criterion the
// victim minimizes future reloads (fewest rewired consumers), ties broken
// by earliest ID. Values pinned by external uses (the branch condition)
// are not spillable.
func (s *scheduler) pickVictim(bank int32, nb *SNode) *SNode {
	type score struct {
		nextUse int // uncovered work before the nearest distant consumer
		distant int // number of distant consumers (future reloads)
	}
	rate := func(p *SNode) (score, bool) {
		sc := score{nextUse: 1 << 30}
		keep := s.keptConsumer(p, nb)
		for _, u := range p.Succs {
			if s.covered[u.ID] || u == keep {
				continue
			}
			sc.distant++
			if d := s.uncoveredAncestors(u, p); d < sc.nextUse {
				sc.nextUse = d
			}
		}
		return sc, sc.distant > 0
	}
	better := func(a, b score) bool { // is a a better victim score?
		if a.nextUse != b.nextUse {
			return a.nextUse > b.nextUse // Belady: farthest next use first
		}
		return a.distant < b.distant // then fewest future reloads (paper)
	}
	var victim *SNode
	var victimScore score
	for _, p := range s.g.nodes {
		if !s.covered[p.ID] || s.removed[p.ID] || s.pending[p.ID] <= 0 {
			continue
		}
		if s.g.ix.bank[p.ID] != bank {
			continue
		}
		if s.g.externalUses[p] > 0 {
			continue
		}
		sc, useful := rate(p)
		if !useful {
			continue // spilling would free nothing
		}
		if victim == nil || better(sc, victimScore) {
			victim, victimScore = p, sc
		}
	}
	return victim
}

// uncoveredAncestors counts the uncovered dependences that must execute
// before node u can run, ignoring the value arriving from `via` (the
// candidate spill victim) — an estimate of how far away u's issue slot
// is. Visited nodes are tracked with epoch stamps and the DFS stack is a
// reused scratch buffer.
func (s *scheduler) uncoveredAncestors(u, via *SNode) int {
	s.epoch++
	e := s.epoch
	s.mark[u.ID] = e
	s.mark[via.ID] = e
	cnt := 0
	stack := append(s.stackBuf[:0], u)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range x.Preds {
			if s.mark[p.ID] == e || s.covered[p.ID] || s.removed[p.ID] {
				continue
			}
			s.mark[p.ID] = e
			cnt++
			stack = append(stack, p)
		}
		for _, p := range x.OrdPreds {
			if s.mark[p.ID] == e || s.covered[p.ID] || s.removed[p.ID] {
				continue
			}
			s.mark[p.ID] = e
			cnt++
			stack = append(stack, p)
		}
	}
	s.stackBuf = stack
	return cnt
}

// keptConsumer returns the one uncovered ready consumer of p that keeps
// reading the register after a spill: the blocked node being enabled when
// it is itself such a consumer, otherwise the lowest-ID ready consumer.
// The kept consumer ends the register's live range at its own issue; all
// other consumers reload from the spill slot.
func (s *scheduler) keptConsumer(p, nb *SNode) *SNode {
	var keep *SNode
	for _, u := range p.Succs {
		if s.covered[u.ID] || !s.ready(u) {
			continue
		}
		if u == nb {
			return u
		}
		if keep == nil || u.ID < keep.ID {
			keep = u
		}
	}
	return keep
}

// spillValue inserts the spill store for victim's value out of bank and
// reload loads into every bank where uncovered consumers still need it.
func (s *scheduler) spillValue(victim *SNode, bank string, nb *SNode) error {
	g := s.g
	slot := fmt.Sprintf("$sp%d", g.nextSpill)
	g.nextSpill++

	// Build the spill chain bank -> DM.
	spillPath, err := g.pickPath(isdl.UnitLoc(bank), g.dm) // bank is already a bank name
	if err != nil {
		return fmt.Errorf("cover: cannot spill from %s: %w", bank, err)
	}
	cur := victim
	var spillFinal *SNode
	for i, step := range spillPath {
		var t *SNode
		if i == len(spillPath)-1 {
			t = g.newNode(StoreNode)
			t.Var = slot
		} else {
			t = g.newNode(MoveNode)
		}
		t.Value = victim.Value
		t.Step = step
		addEdge(cur, t)
		cur = t
		spillFinal = t
	}
	// The chain added nodes; extend the per-node state before indexing by
	// their IDs below.
	s.grow()

	// Collect uncovered consumers, removing redundant move chains.
	// needs maps a bank to the consumers that must be rewired to a
	// reload in that bank.
	needs := make(map[string][]*SNode)
	var walkChain func(mv *SNode)
	removeValueEdge := func(from, to *SNode) {
		from.Succs = deleteNode(from.Succs, to)
		to.Preds = deleteNode(to.Preds, from)
	}
	walkChain = func(mv *SNode) {
		// mv is an uncovered move sourcing the spilled value; its
		// consumers read the value at mv.Step.To.
		for _, w := range append([]*SNode(nil), mv.Succs...) {
			removeValueEdge(mv, w)
			if w.Kind == MoveNode && !s.covered[w.ID] {
				walkChain(w)
				continue
			}
			if mv.Step.To.Kind == isdl.LocUnit {
				needs[mv.Step.To.Name] = append(needs[mv.Step.To.Name], w)
			}
		}
		s.removed[mv.ID] = true
		s.pending[mv.ID] = pendingAbsent
		for _, q := range append([]*SNode(nil), mv.Preds...) {
			removeValueEdge(q, mv)
		}
	}

	keep := s.keptConsumer(victim, nb)
	for _, u := range append([]*SNode(nil), victim.Succs...) {
		if s.covered[u.ID] || u == spillFinal || onChainTo(u, spillFinal) {
			continue
		}
		if u == keep {
			// The kept consumer keeps reading the register: the spill's
			// store happens now but eviction waits until it has consumed
			// the value (the paper's Fig. 9 keeps the direct register
			// edge to the imminent consumer).
			continue
		}
		switch u.Kind {
		case MoveNode:
			walkChain(u)
		default:
			// Ops on this unit and stores from this bank reload into the
			// bank itself.
			removeValueEdge(victim, u)
			needs[bank] = append(needs[bank], u)
		}
	}

	// Build one reload chain per needed bank and rewire consumers.
	var bankList []string
	for b := range needs {
		bankList = append(bankList, b)
	}
	sort.Strings(bankList)
	for _, b := range bankList {
		path, err := g.pickPath(g.dm, isdl.UnitLoc(b))
		if err != nil {
			return fmt.Errorf("cover: cannot reload into %s: %w", b, err)
		}
		var cur *SNode
		for i, step := range path {
			var t *SNode
			if i == 0 {
				t = g.newNode(LoadNode)
				t.Var = slot
			} else {
				t = g.newNode(MoveNode)
			}
			t.Value = victim.Value
			t.Step = step
			if cur != nil {
				addEdge(cur, t)
			} else {
				addOrderEdge(spillFinal, t) // reload only after the spill
			}
			cur = t
		}
		for _, w := range needs[b] {
			addEdge(cur, w)
		}
	}
	// Reload chains added more nodes.
	s.grow()

	// Recompute pending for the victim and initialize it for new nodes.
	s.recomputePending(victim)
	for _, n := range g.nodes {
		if s.pending[n.ID] == pendingAbsent && !s.removed[n.ID] && !s.covered[n.ID] {
			s.initPending(n)
		}
	}
	s.recountRemaining()
	return nil
}

// recomputePending restores the invariant pending = uncovered value
// consumers + external uses for a node after structural edits.
func (s *scheduler) recomputePending(n *SNode) {
	if _, defines := n.DefLoc(); !defines {
		return
	}
	cnt := s.g.externalUses[n]
	for _, u := range n.Succs {
		if !s.covered[u.ID] {
			cnt++
		}
	}
	s.pending[n.ID] = int32(cnt)
}

// onChainTo reports whether from is an intermediate hop of the spill
// chain ending at final (from leads to final through moves only).
func onChainTo(from, final *SNode) bool {
	for from != nil {
		if from == final {
			return true
		}
		if from.Kind != MoveNode || len(from.Succs) != 1 {
			return false
		}
		from = from.Succs[0]
	}
	return false
}

func deleteNode(list []*SNode, x *SNode) []*SNode {
	for i, n := range list {
		if n == x {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}
