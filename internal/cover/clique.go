package cover

import (
	"encoding/binary"
	"sort"
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
// later by legality splitting.
//
// levelWindow >= 0 additionally applies the clique-reduction heuristic of
// Sec. IV-C.2: nodes merge only when their levels from the top and from
// the bottom of the solution graph are within the window.
func parallelMatrix(nodes []*SNode, m *isdl.Machine, levelWindow int) *bitset.Matrix {
	n := len(nodes)
	idx := make(map[*SNode]int, n)
	for i, nd := range nodes {
		idx[nd] = i
	}
	// Transitive reachability restricted to the node subset. Paths may
	// pass through nodes outside the subset (already covered ones cannot
	// — they are scheduled — but spill regeneration passes subsets), so
	// walk the full graph.
	reach := bitset.NewMatrix(n)
	seen := make(map[*SNode]bool, 2*n)
	var stack []*SNode
	for i, nd := range nodes {
		clear(seen)
		stack = append(stack[:0], nd.Succs...)
		stack = append(stack, nd.OrdSuccs...)
		row := reach.Row(i)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[x] {
				continue
			}
			seen[x] = true
			if j, ok := idx[x]; ok {
				row.Set(j)
			}
			stack = append(stack, x.Succs...)
			stack = append(stack, x.OrdSuccs...)
		}
	}

	var fromTop, fromBottom map[*SNode]int
	if levelWindow >= 0 {
		fromTop, fromBottom = snodeLevels(nodes)
	}

	par := bitset.NewMatrix(n)
	for i := 0; i < n; i++ {
		ri := reach.Row(i)
		for j := i + 1; j < n; j++ {
			ok := !ri.Get(j) && !reach.Get(j, i) && resourceCompatible(nodes[i], nodes[j], m)
			if ok && levelWindow >= 0 {
				a, b := nodes[i], nodes[j]
				if abs(fromTop[a]-fromTop[b]) > levelWindow || abs(fromBottom[a]-fromBottom[b]) > levelWindow {
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
func ParallelMatrix(nodes []*SNode, m *isdl.Machine, levelWindow int) [][]bool {
	pm := parallelMatrix(nodes, m, levelWindow)
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

func resourceCompatible(a, b *SNode, m *isdl.Machine) bool {
	if a.Kind == OpNode && b.Kind == OpNode {
		return a.Unit != b.Unit
	}
	if a.IsTransfer() && b.IsTransfer() {
		if a.Step.Bus == b.Step.Bus {
			bus := m.Bus(a.Step.Bus)
			if bus != nil && bus.Width == 1 {
				return false
			}
		}
	}
	return true
}

// snodeLevels computes levels from the top (distance below a sink) and
// from the bottom (height above a source) within the node subset,
// following both value and ordering edges.
func snodeLevels(nodes []*SNode) (fromTop, fromBottom map[*SNode]int) {
	inSet := make(map[*SNode]bool, len(nodes))
	for _, n := range nodes {
		inSet[n] = true
	}
	order := topoOrder(nodes, inSet)
	fromBottom = make(map[*SNode]int, len(nodes))
	for _, n := range order {
		h := 0
		for _, p := range n.Preds {
			if inSet[p] {
				if v := fromBottom[p] + 1; v > h {
					h = v
				}
			}
		}
		for _, p := range n.OrdPreds {
			if inSet[p] {
				if v := fromBottom[p] + 1; v > h {
					h = v
				}
			}
		}
		fromBottom[n] = h
	}
	fromTop = make(map[*SNode]int, len(nodes))
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		d := 0
		for _, s := range n.Succs {
			if inSet[s] {
				if v := fromTop[s] + 1; v > d {
					d = v
				}
			}
		}
		for _, s := range n.OrdSuccs {
			if inSet[s] {
				if v := fromTop[s] + 1; v > d {
					d = v
				}
			}
		}
		fromTop[n] = d
	}
	return fromTop, fromBottom
}

func topoOrder(nodes []*SNode, inSet map[*SNode]bool) []*SNode {
	var order []*SNode
	state := make(map[*SNode]int, len(nodes)) // 0 unseen, 1 visiting, 2 done
	var visit func(n *SNode)
	visit = func(n *SNode) {
		if state[n] != 0 {
			return
		}
		state[n] = 1
		for _, p := range n.Preds {
			if inSet[p] {
				visit(p)
			}
		}
		for _, p := range n.OrdPreds {
			if inSet[p] {
				visit(p)
			}
		}
		state[n] = 2
		order = append(order, n)
	}
	for _, n := range nodes {
		visit(n)
	}
	return order
}

// cliqueGen holds the working state of one GenMaxCliquesBits run: the
// matrix, the accumulated cliques with their dedupe keys, a scratch word
// buffer for binary keys, and a free list of recursion-frame sets.
type cliqueGen struct {
	pm     *bitset.Matrix
	out    [][]int
	seen   map[string]bool
	keyBuf []byte
	tmp    bitset.Set
	free   []bitset.Set
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
	g.keyBuf = g.keyBuf[:0]
	for _, w := range clique {
		g.keyBuf = binary.LittleEndian.AppendUint64(g.keyBuf, w)
	}
	if g.seen[string(g.keyBuf)] {
		return
	}
	g.seen[string(g.keyBuf)] = true
	g.out = append(g.out, clique.AppendBits(nil))
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
	var rest []int
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
			rest = append(rest, i)
		}
	})
	if precluded {
		return
	}
	if len(rest) == 0 {
		g.record(clique)
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
	for _, i := range rest {
		if g.full {
			break
		}
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
	n := pm.N()
	g := &cliqueGen{
		pm:     pm,
		seen:   make(map[string]bool),
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
	keys := make([]string, len(out))
	for i, c := range out {
		keys[i] = intsKey(c)
	}
	sort.Sort(&cliqueSort{cliques: out, keys: keys})
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

// cliqueSort orders cliques largest first, ties broken by the textual
// index list (the historical fmt.Sprint order, which downstream
// tie-breaking depends on for byte-identical output).
type cliqueSort struct {
	cliques [][]int
	keys    []string
}

func (s *cliqueSort) Len() int { return len(s.cliques) }
func (s *cliqueSort) Less(a, b int) bool {
	if len(s.cliques[a]) != len(s.cliques[b]) {
		return len(s.cliques[a]) > len(s.cliques[b])
	}
	return s.keys[a] < s.keys[b]
}
func (s *cliqueSort) Swap(a, b int) {
	s.cliques[a], s.cliques[b] = s.cliques[b], s.cliques[a]
	s.keys[a], s.keys[b] = s.keys[b], s.keys[a]
}

// intsKey renders a sorted index slice exactly as fmt.Sprint would
// ("[1 2 3]") without the reflection cost.
func intsKey(c []int) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, v := range c {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.Itoa(v))
	}
	sb.WriteByte(']')
	return sb.String()
}

// buildCliques generates the legal maximal groupings over the given nodes:
// the parallelism matrix, the maximal cliques, then legality splitting of
// any clique that violates machine constraints (Sec. IV-C.3).
func buildCliques(nodes []*SNode, m *isdl.Machine, opts Options) [][]*SNode {
	if len(nodes) == 0 {
		return nil
	}
	return cliquesFromMatrix(nodes, parallelMatrix(nodes, m, opts.LevelWindow), m, opts.CliqueBudget)
}

// cliquesFromMatrix is buildCliques from a precomputed parallelism
// matrix; coverAssignment computes the matrix itself so it can also
// compare it across level windows.
func cliquesFromMatrix(nodes []*SNode, par *bitset.Matrix, m *isdl.Machine, budget int) [][]*SNode {
	raw := GenMaxCliquesLimit(par, budget)
	var out [][]*SNode
	for _, idxs := range raw {
		group := make([]*SNode, len(idxs))
		for i, j := range idxs {
			group[i] = nodes[j]
		}
		out = append(out, splitIllegal(group, m)...)
	}
	return dedupeCliques(out)
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

// dedupeCliques removes duplicate groupings by a binary key over the
// sorted node IDs (a hash-set lookup per clique; formatting-free).
func dedupeCliques(cs [][]*SNode) [][]*SNode {
	seen := make(map[string]bool, len(cs))
	var out [][]*SNode
	var ids []int
	var key []byte
	for _, c := range cs {
		k := cliqueKey(c, &ids, &key)
		if !seen[string(k)] {
			seen[string(k)] = true
			out = append(out, c)
		}
	}
	return out
}

// cliqueKey builds the canonical binary key of a clique (varints of the
// sorted node IDs) in the caller-provided scratch buffers, growing them
// as needed.
func cliqueKey(c []*SNode, ids *[]int, key *[]byte) []byte {
	v := (*ids)[:0]
	for _, n := range c {
		v = append(v, n.ID)
	}
	sort.Ints(v)
	*ids = v
	k := (*key)[:0]
	for _, id := range v {
		k = binary.AppendVarint(k, int64(id))
	}
	*key = k
	return k
}

// formatClique renders a clique for traces and tests.
func formatClique(c []*SNode) string {
	parts := make([]string, len(c))
	for i, n := range c {
		parts[i] = n.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
