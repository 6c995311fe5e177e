package cover

import (
	"bytes"
	"slices"
	"strconv"
	"strings"

	"aviv/internal/bitset"
	"aviv/internal/isdl"
)

// parallelMatrix computes the pairwise-parallelism matrix of Sec. IV-C.1
// over the given solution-graph nodes as word-packed bitset rows: bit
// (i, j) is set when node i can execute in the same instruction as node
// j. Two nodes are parallel when no directed path connects them (value
// or ordering edges) and their resources are compatible: two operations
// need different units; two transfers must not both need a slot on a
// width-1 bus. Wider buses and explicit ISDL constraints are enforced
// later by legality splitting. ix must index every node of the list.
//
// levelWindow >= 0 additionally applies the clique-reduction heuristic of
// Sec. IV-C.2: nodes merge only when their levels from the top and from
// the bottom of the solution graph are within the window.
func parallelMatrix(nodes []*SNode, ix *nodeIndex, levelWindow int) *bitset.Matrix {
	n := len(nodes)
	sub := newSubset(nodes)
	// Transitive reachability restricted to the node subset. Paths may
	// pass through nodes outside the subset (already covered ones cannot
	// — they are scheduled — but spill regeneration passes subsets), so
	// walk the full graph. seen stamps visited IDs with the walk number.
	reach := bitset.NewMatrix(n)
	seen := make([]int32, len(ix.res))
	var stack []*SNode
	for i, nd := range nodes {
		walk := int32(i + 1)
		stack = append(stack[:0], nd.Succs...)
		stack = append(stack, nd.OrdSuccs...)
		row := reach.Row(i)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for x.ID >= len(seen) {
				seen = append(seen, 0)
			}
			if seen[x.ID] == walk {
				continue
			}
			seen[x.ID] = walk
			if j := sub.of(x); j >= 0 {
				row.Set(j)
			}
			stack = append(stack, x.Succs...)
			stack = append(stack, x.OrdSuccs...)
		}
	}

	var fromTop, fromBottom []int32
	if levelWindow >= 0 {
		fromTop, fromBottom = snodeLevels(nodes)
	}

	par := bitset.NewMatrix(n)
	for i := 0; i < n; i++ {
		ri := reach.Row(i)
		for j := i + 1; j < n; j++ {
			ok := !ri.Get(j) && !reach.Get(j, i) && ix.compatible(nodes[i], nodes[j])
			if ok && levelWindow >= 0 {
				if abs(int(fromTop[i]-fromTop[j])) > levelWindow || abs(int(fromBottom[i]-fromBottom[j])) > levelWindow {
					ok = false
				}
			}
			if ok {
				par.SetSym(i, j)
			}
		}
	}
	return par
}

// ParallelMatrix is the [][]bool view of parallelMatrix, kept for the
// figure-reproduction harness and tests that index entries directly.
// Node IDs must be distinct and non-negative, as in a solution graph.
func ParallelMatrix(nodes []*SNode, m *isdl.Machine, levelWindow int) [][]bool {
	ix := newNodeIndex(m, len(nodes))
	ix.addAll(nodes)
	pm := parallelMatrix(nodes, ix, levelWindow)
	n := len(nodes)
	par := make([][]bool, n)
	for i := range par {
		par[i] = make([]bool, n)
		row := pm.Row(i)
		for j := 0; j < n; j++ {
			par[i][j] = row.Get(j)
		}
	}
	return par
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// compatible reports whether a and b may share an instruction as far as
// their resources go: two operations need different units, and two
// transfers may share a bus unless it is one slot wide.
func (x *nodeIndex) compatible(a, b *SNode) bool {
	r := x.res[a.ID]
	return r != x.res[b.ID] || !x.exclusive[r]
}

// subset locates the members of a node list by SNode.ID.
type subset struct {
	nodes []*SNode
	slot  []int32 // by SNode.ID: the node's position in nodes, or -1
}

func newSubset(nodes []*SNode) subset {
	bound := 0
	for _, n := range nodes {
		bound = max(bound, n.ID+1)
	}
	sub := subset{nodes: nodes, slot: make([]int32, bound)}
	for i := range sub.slot {
		sub.slot[i] = -1
	}
	for i, n := range nodes {
		sub.slot[n.ID] = int32(i)
	}
	return sub
}

// of returns n's position in the subset, or -1 when n is not a member.
func (sub subset) of(n *SNode) int {
	if n.ID < len(sub.slot) {
		if i := sub.slot[n.ID]; i >= 0 && sub.nodes[i] == n {
			return int(i)
		}
	}
	return -1
}

// snodeLevels computes levels from the top (distance below a sink) and
// from the bottom (height above a source) within the node subset,
// following both value and ordering edges. Both slices are indexed by
// position in nodes.
func snodeLevels(nodes []*SNode) (fromTop, fromBottom []int32) {
	sub := newSubset(nodes)
	order := topoOrder(sub)
	fromBottom = make([]int32, len(nodes))
	for _, i := range order {
		n := nodes[i]
		h := int32(0)
		for _, p := range n.Preds {
			if j := sub.of(p); j >= 0 {
				h = max(h, fromBottom[j]+1)
			}
		}
		for _, p := range n.OrdPreds {
			if j := sub.of(p); j >= 0 {
				h = max(h, fromBottom[j]+1)
			}
		}
		fromBottom[i] = h
	}
	fromTop = make([]int32, len(nodes))
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		n := nodes[i]
		d := int32(0)
		for _, s := range n.Succs {
			if j := sub.of(s); j >= 0 {
				d = max(d, fromTop[j]+1)
			}
		}
		for _, s := range n.OrdSuccs {
			if j := sub.of(s); j >= 0 {
				d = max(d, fromTop[j]+1)
			}
		}
		fromTop[i] = d
	}
	return fromTop, fromBottom
}

// topoOrder returns the subset's positions in a topological order of
// its value and ordering edges: a depth-first walk over predecessors,
// members in list order.
func topoOrder(sub subset) []int32 {
	order := make([]int32, 0, len(sub.nodes))
	state := make([]uint8, len(sub.nodes)) // 0 unseen, 1 visiting, 2 done
	var visit func(i int)
	visit = func(i int) {
		if state[i] != 0 {
			return
		}
		state[i] = 1
		n := sub.nodes[i]
		for _, p := range n.Preds {
			if j := sub.of(p); j >= 0 {
				visit(j)
			}
		}
		for _, p := range n.OrdPreds {
			if j := sub.of(p); j >= 0 {
				visit(j)
			}
		}
		state[i] = 2
		order = append(order, int32(i))
	}
	for i := range sub.nodes {
		visit(i)
	}
	return order
}

// cliqueGen holds the working state of one GenMaxCliquesBits run: the
// matrix, the accumulated cliques with their dedupe set, a scratch
// member list, and a free list of recursion-frame sets.
type cliqueGen struct {
	pm   *bitset.Matrix
	out  [][]int
	seen *cliqueSet
	ids  []int
	tmp  bitset.Set
	free []bitset.Set
	// rest is a stack of the recursion frames' non-universal candidates:
	// each frame pushes its own above its caller's and pops them on
	// return.
	rest []int
	// budget caps the number of recorded cliques (0 = unlimited); full
	// is latched once the budget is reached and aborts the recursion.
	budget int
	full   bool
}

func (g *cliqueGen) get() bitset.Set {
	if n := len(g.free); n > 0 {
		s := g.free[n-1]
		g.free = g.free[:n-1]
		s.Reset()
		return s
	}
	return bitset.New(g.pm.N())
}

func (g *cliqueGen) put(s bitset.Set) { g.free = append(g.free, s) }

func (g *cliqueGen) record(clique bitset.Set) {
	g.ids = clique.AppendBits(g.ids[:0])
	if !g.seen.add(g.ids) {
		return
	}
	g.out = append(g.out, append([]int(nil), g.ids...))
	if g.budget > 0 && len(g.out) >= g.budget {
		g.full = true
	}
}

// gen is the recursive core of Fig. 8. clique holds the members so far;
// cand holds exactly the nodes parallel to every member (the AND of the
// members' matrix rows); index is the preclusion threshold. clique is
// mutated by absorption, so callers pass a private copy.
func (g *cliqueGen) gen(clique, cand bitset.Set, index int) {
	if g.full {
		return
	}
	// First loop: absorb candidates that preclude no other candidate. A
	// candidate i is universal when cand \ row(i) contains nothing but i
	// itself — a word-wise ANDNOT instead of a pairwise scan.
	base := len(g.rest)
	precluded := false
	cand.ForEach(func(i int) {
		if precluded {
			return
		}
		g.tmp.AndNot(cand, g.pm.Row(i))
		g.tmp.Clear(i)
		if g.tmp.Empty() {
			if i < index {
				precluded = true // pruning condition of Fig. 8
				return
			}
			clique.Set(i)
		} else {
			g.rest = append(g.rest, i)
		}
	})
	nRest := len(g.rest) - base
	if precluded || nRest == 0 {
		g.rest = g.rest[:base]
		if !precluded {
			g.record(clique)
		}
		return
	}
	// An absorbed universal candidate is parallel to every other
	// candidate, so its row contains all of cand but itself: removing
	// the clique bits leaves exactly the candidate set the recursive
	// calls must see.
	candRest := g.get()
	candRest.AndNot(cand, clique)
	childClique := g.get()
	childCand := g.get()
	// Second loop: spawn one recursive call per remaining candidate.
	for k := 0; k < nRest; k++ {
		if g.full {
			break
		}
		// Index afresh: a child's pushes may move the stack.
		i := g.rest[base+k]
		childClique.Copy(clique)
		childClique.Set(i)
		childCand.And(candRest, g.pm.Row(i))
		next := index
		if i > next {
			next = i
		}
		g.gen(childClique, childCand, next)
	}
	g.put(childCand)
	g.put(childClique)
	g.put(candRest)
	g.rest = g.rest[:base]
}

// GenMaxCliquesBits enumerates all maximal cliques of the bitset
// parallelism matrix using the paper's Fig. 8 algorithm: the first phase
// greedily absorbs every candidate that precludes no other candidate,
// and the i < index test prunes branches whose cliques were already
// produced from an earlier-numbered seed. Candidate intersection,
// absorption, and the preclusion test are word-wise AND/ANDNOT over the
// packed rows. Cliques are returned as sorted index slices, largest
// first.
func GenMaxCliquesBits(pm *bitset.Matrix) [][]int {
	return GenMaxCliquesLimit(pm, 0)
}

// GenMaxCliquesLimit is GenMaxCliquesBits with a budget: enumeration
// stops deterministically once budget cliques are recorded (0 means
// unlimited), and a repair pass then extends the result with one
// greedily-built maximal clique per node the truncated enumeration left
// uncovered, so downstream covering always finds a grouping for every
// node.
func GenMaxCliquesLimit(pm *bitset.Matrix, budget int) [][]int {
	return genMaxCliques(pm, budget, new(cliqueSet))
}

// genMaxCliques is GenMaxCliquesLimit recording into the caller's
// dedupe set, which it resets first.
func genMaxCliques(pm *bitset.Matrix, budget int, seen *cliqueSet) [][]int {
	n := pm.N()
	seen.reset()
	g := &cliqueGen{
		pm:     pm,
		seen:   seen,
		tmp:    bitset.New(n),
		budget: budget,
	}
	seedClique := bitset.New(n)
	seedCand := bitset.New(n)
	for i := 0; i < n && !g.full; i++ {
		seedClique.Reset()
		seedClique.Set(i)
		seedCand.Copy(pm.Row(i))
		g.gen(seedClique, seedCand, i)
	}
	if g.full {
		g.repairCoverage()
	}
	out := g.out
	slices.SortFunc(out, compareCliques)
	return out
}

// repairCoverage runs after a budget-truncated enumeration: any node no
// recorded clique contains gets one maximal clique built greedily
// around it (always absorbing the lowest-index remaining candidate), so
// the truncation can never make a node unschedulable.
func (g *cliqueGen) repairCoverage() {
	n := g.pm.N()
	covered := bitset.New(n)
	for _, c := range g.out {
		for _, i := range c {
			covered.Set(i)
		}
	}
	clique := bitset.New(n)
	cand := bitset.New(n)
	for i := 0; i < n; i++ {
		if covered.Get(i) {
			continue
		}
		clique.Reset()
		clique.Set(i)
		cand.Copy(g.pm.Row(i))
		for {
			j := -1
			cand.ForEach(func(k int) {
				if j < 0 {
					j = k
				}
			})
			if j < 0 {
				break
			}
			clique.Set(j)
			cand.And(cand, g.pm.Row(j))
			cand.Clear(j)
		}
		g.record(clique)
		clique.ForEach(func(k int) { covered.Set(k) })
	}
}

// GenMaxCliques is GenMaxCliquesBits over a [][]bool matrix, kept for
// the figure-reproduction harness and tests.
func GenMaxCliques(par [][]bool) [][]int {
	n := len(par)
	pm := bitset.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if par[i][j] {
				pm.Row(i).Set(j)
			}
		}
	}
	return GenMaxCliquesBits(pm)
}

// compareCliques orders cliques largest first, ties broken by the
// textual index list (the historical fmt.Sprint order, "[1 2 3]", which
// downstream tie-breaking depends on for byte-identical output).
func compareCliques(a, b []int) int {
	if len(a) != len(b) {
		return len(b) - len(a)
	}
	return compareIndexText(a, b)
}

// compareIndexText compares two equal-length sorted index lists as
// their fmt.Sprint renderings would compare, without rendering the
// lists: the texts agree up to the first differing element, and that
// element's digits followed by its separator (a space, or the closing
// bracket after the last element) decide.
func compareIndexText(a, b []int) int {
	for k := range a {
		if a[k] == b[k] {
			continue
		}
		sep := byte(' ')
		if k == len(a)-1 {
			sep = ']'
		}
		var ba, bb [24]byte
		ta := append(strconv.AppendInt(ba[:0], int64(a[k]), 10), sep)
		tb := append(strconv.AppendInt(bb[:0], int64(b[k]), 10), sep)
		return bytes.Compare(ta, tb)
	}
	return 0
}

// buildCliques generates the legal maximal groupings over the given nodes:
// the parallelism matrix, the maximal cliques, then legality splitting of
// any clique that violates machine constraints (Sec. IV-C.3). seen is
// the dedupe set the enumeration and the final filter share.
func buildCliques(nodes []*SNode, ix *nodeIndex, opts Options, seen *cliqueSet) [][]*SNode {
	if len(nodes) == 0 {
		return nil
	}
	return cliquesFromMatrix(nodes, parallelMatrix(nodes, ix, opts.LevelWindow), ix.machine, opts.CliqueBudget, seen)
}

// cliquesFromMatrix is buildCliques from a precomputed parallelism
// matrix; coverAssignment computes the matrix itself so it can also
// compare it across level windows. The groupings are carved out of one
// slab, each with its capacity clipped.
func cliquesFromMatrix(nodes []*SNode, par *bitset.Matrix, m *isdl.Machine, budget int, seen *cliqueSet) [][]*SNode {
	raw := genMaxCliques(par, budget, seen)
	total := 0
	for _, idxs := range raw {
		total += len(idxs)
	}
	slab := make([]*SNode, total)
	out := make([][]*SNode, 0, len(raw))
	for _, idxs := range raw {
		group := slab[:len(idxs):len(idxs)]
		slab = slab[len(idxs):]
		for i, j := range idxs {
			group[i] = nodes[j]
		}
		out = append(out, splitIllegal(group, m)...)
	}
	return seen.dedupe(out)
}

// splitIllegal checks a proposed grouping against the machine's
// constraints, splitting it greedily into legal subgroups when violated.
func splitIllegal(group []*SNode, m *isdl.Machine) [][]*SNode {
	if legalGroup(group, m) {
		return [][]*SNode{group}
	}
	var subs [][]*SNode
	for _, n := range group {
		placed := false
		for i := range subs {
			trial := append(append([]*SNode(nil), subs[i]...), n)
			if legalGroup(trial, m) {
				subs[i] = trial
				placed = true
				break
			}
		}
		if !placed {
			subs = append(subs, []*SNode{n})
		}
	}
	return subs
}

// legalGroup reports whether the grouping forms a legal instruction.
func legalGroup(group []*SNode, m *isdl.Machine) bool { return legalWith(group, nil, m) }

// legalWith reports whether group, plus the node extra when it is not
// nil, forms a legal instruction. The slot and bus tallies live in
// fixed-size stack buffers, so checking a group of ordinary width
// allocates nothing.
func legalWith(group []*SNode, extra *SNode, m *isdl.Machine) bool {
	var slotBuf [16]isdl.SlotRef
	var busBuf [16]isdl.BusUse
	slots, buses := slotBuf[:0], busBuf[:0]
	for _, n := range group {
		slots, buses = tally(slots, buses, n)
	}
	if extra != nil {
		slots, buses = tally(slots, buses, extra)
	}
	return m.LegalGroup(slots, buses)
}

// tally adds one grouped node to the instruction's slot list or to its
// per-bus transfer counts.
func tally(slots []isdl.SlotRef, buses []isdl.BusUse, n *SNode) ([]isdl.SlotRef, []isdl.BusUse) {
	if n.Kind == OpNode {
		// Synthetic immediate materializations (Op == CONST) occupy
		// the unit but are outside the ISDL op repertoire; unit
		// exclusivity for them is already enforced by the
		// parallelism matrix, so they add no constraint slot.
		if n.Op.IsComputation() {
			slots = append(slots, isdl.SlotRef{Unit: n.Unit, Op: n.Op})
		}
		return slots, buses
	}
	for i := range buses {
		if buses[i].Bus == n.Step.Bus {
			buses[i].N++
			return slots, buses
		}
	}
	return slots, append(buses, isdl.BusUse{Bus: n.Step.Bus, N: 1})
}

// cliqueSet is the duplicate filter of the clique lists: a clique is
// keyed by an integer hash of its sorted member IDs, and the cliques
// sharing a hash (a bucket) are told apart by comparing their member
// lists, so a collision can never merge two distinct cliques. The table
// is open-addressed with linear probing; the members of every recorded
// clique are copied into one flat array. The zero value is empty, and
// its storage is kept across reset.
type cliqueSet struct {
	table []int32  // entry+1, or 0 for an empty cell; len is a power of two
	hash  []uint64 // entry -> its hash
	start []int32  // entry k's members are ids[start[k]:start[k+1]]
	ids   []int32
	sort  []int // scratch: the sorted member IDs of the clique being added
}

func (cs *cliqueSet) reset() {
	clear(cs.table)
	cs.hash = cs.hash[:0]
	cs.start = append(cs.start[:0], 0)
	cs.ids = cs.ids[:0]
}

// hashIDs is FNV-1a over the member IDs, one 64-bit word per ID, with a
// final avalanche so the low bits that pick a table cell depend on
// every ID.
func hashIDs(ids []int) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ids {
		h ^= uint64(id)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// add records the sorted member list ids and reports whether it is new;
// a list already recorded (the first occurrence) is left as it is.
func (cs *cliqueSet) add(ids []int) bool { return cs.insert(ids, hashIDs(ids)) }

// insert is add with the hash supplied by the caller.
func (cs *cliqueSet) insert(ids []int, h uint64) bool {
	if len(cs.start) == 0 {
		cs.reset()
	}
	if 2*(len(cs.hash)+1) > len(cs.table) {
		cs.rehash()
	}
	mask := uint64(len(cs.table) - 1)
	i := h & mask
	for ; cs.table[i] != 0; i = (i + 1) & mask {
		if k := cs.table[i] - 1; cs.hash[k] == h && cs.equal(k, ids) {
			return false
		}
	}
	cs.table[i] = int32(len(cs.hash)) + 1
	cs.hash = append(cs.hash, h)
	for _, id := range ids {
		cs.ids = append(cs.ids, int32(id))
	}
	cs.start = append(cs.start, int32(len(cs.ids)))
	return true
}

// rehash doubles the table (to at least 16 cells) and re-places every
// entry.
func (cs *cliqueSet) rehash() {
	cs.table = make([]int32, max(16, 2*len(cs.table)))
	mask := uint64(len(cs.table) - 1)
	for k, h := range cs.hash {
		i := h & mask
		for cs.table[i] != 0 {
			i = (i + 1) & mask
		}
		cs.table[i] = int32(k) + 1
	}
}

// equal reports whether entry k holds exactly the members ids.
func (cs *cliqueSet) equal(k int32, ids []int) bool {
	got := cs.ids[cs.start[k]:cs.start[k+1]]
	if len(got) != len(ids) {
		return false
	}
	for i, id := range ids {
		if int(got[i]) != id {
			return false
		}
	}
	return true
}

// dedupe filters cs in place down to the first occurrence of every
// distinct clique (as a set of node IDs), keeping first-seen order.
func (cs *cliqueSet) dedupe(cliques [][]*SNode) [][]*SNode {
	cs.reset()
	out := cliques[:0]
	for _, c := range cliques {
		v := cs.sort[:0]
		for _, n := range c {
			v = append(v, n.ID)
		}
		slices.Sort(v)
		cs.sort = v
		if cs.insert(v, hashIDs(v)) {
			out = append(out, c)
		}
	}
	return out
}

// formatClique renders a clique for traces and tests.
func formatClique(c []*SNode) string {
	parts := make([]string, len(c))
	for i, n := range c {
		parts[i] = n.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
