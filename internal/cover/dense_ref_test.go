package cover

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"aviv/internal/ir"
	"aviv/internal/isdl"
)

// lookaheadRef is the lookahead estimate as the scheduler computed it
// before its per-resource counts became incremental: a rescan of every
// uncovered, unremoved node outside the set into name-keyed unit and
// bus counts. It is the oracle for the running counts.
func lookaheadRef(s *scheduler, set []*SNode) int {
	inSet := make(map[*SNode]bool, len(set))
	for _, n := range set {
		inSet[n] = true
	}
	unitCnt := make(map[string]int)
	busCnt := make(map[string]int)
	for _, n := range s.g.nodes {
		if s.covered[n.ID] || s.removed[n.ID] || inSet[n] {
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

// LookaheadStats summarizes what one WatchLookahead probe saw.
type LookaheadStats struct {
	// Calls counts the lookahead estimates checked; AfterSpill those
	// made by a scheduler that had already spilled.
	Calls, AfterSpill int
	// Err is the first estimate that disagreed with lookaheadRef.
	Err error
}

// WatchLookahead checks every lookahead estimate against lookaheadRef
// until the returned function is called; that function removes the
// probe and reports what it saw. Compiles must run serially meanwhile.
func WatchLookahead() func() LookaheadStats {
	var st LookaheadStats
	lookaheadProbe = func(s *scheduler, set []*SNode, est int) {
		st.Calls++
		if s.spillCount > 0 {
			st.AfterSpill++
		}
		if ref := lookaheadRef(s, set); ref != est && st.Err == nil {
			st.Err = fmt.Errorf("block %s: lookahead(%s) = %d, reference %d",
				s.g.block.Name, formatClique(set), est, ref)
		}
	}
	return func() LookaheadStats {
		lookaheadProbe = nil
		return st
	}
}

// TestLookaheadMatchesReferenceSpill runs the lookahead oracle over
// blocks that spill on the example architecture with tiny register
// files, both presets.
func TestLookaheadMatchesReferenceSpill(t *testing.T) {
	m := isdl.ExampleArch(2)
	for _, opts := range []Options{DefaultOptions(), ExhaustiveOptions()} {
		stop := WatchLookahead()
		for _, blk := range []*ir.Block{firBlock(4), wideBlock(6), fig2Block()} {
			if _, err := CoverBlock(blk, m, opts); err != nil {
				stop()
				t.Fatal(err)
			}
		}
		st := stop()
		if st.Err != nil {
			t.Fatal(st.Err)
		}
		if st.Calls == 0 || st.AfterSpill == 0 {
			t.Fatalf("checked %d estimates, %d after a spill: the oracle saw no spilling schedule", st.Calls, st.AfterSpill)
		}
	}
}

// cliqueKeyRef is the byte-string clique key the dedupe used before
// hash buckets: varints of the sorted node IDs.
func cliqueKeyRef(c []*SNode) string {
	ids := make([]int, 0, len(c))
	for _, n := range c {
		ids = append(ids, n.ID)
	}
	sort.Ints(ids)
	var k []byte
	for _, id := range ids {
		k = binary.AppendVarint(k, int64(id))
	}
	return string(k)
}

// dedupeCliquesRef is the string-keyed dedupe the scheduler used before
// hash buckets, kept as the oracle: first occurrence kept, order kept.
func dedupeCliquesRef(cs [][]*SNode) [][]*SNode {
	seen := make(map[string]bool, len(cs))
	var out [][]*SNode
	for _, c := range cs {
		if k := cliqueKeyRef(c); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}

// TestDedupeMatchesReference compares the hash-bucket dedupe with the
// string-keyed reference on random clique lists full of repeats, with
// members in scrambled order, through a fresh set and through the
// scheduler's reused one.
func TestDedupeMatchesReference(t *testing.T) {
	nodes := make([]*SNode, 40)
	for i := range nodes {
		nodes[i] = &SNode{ID: i}
	}
	r := rand.New(rand.NewSource(1))
	s := &scheduler{}
	for trial := 0; trial < 200; trial++ {
		// A small node pool makes repeats common.
		pool := 4 + trial%12
		var cs [][]*SNode
		for k := 0; k < 1+r.Intn(60); k++ {
			var c []*SNode
			for _, i := range r.Perm(pool)[:1+r.Intn(4)] {
				c = append(c, nodes[i])
			}
			cs = append(cs, c)
		}
		want := dedupeCliquesRef(cs)
		for name, got := range map[string][][]*SNode{
			"fresh cliqueSet":      new(cliqueSet).dedupe(slices.Clone(cs)),
			"dedupeCliquesInPlace": s.dedupeCliquesInPlace(slices.Clone(cs)),
		} {
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d cliques, reference %d", trial, name, len(got), len(want))
			}
			for i := range got {
				if &got[i][0] != &want[i][0] {
					t.Fatalf("trial %d %s: clique %d is %s, reference %s", trial, name, i, formatClique(got[i]), formatClique(want[i]))
				}
			}
		}
	}
}

// TestCliqueSetCollisions forces distinct cliques into one hash bucket:
// every distinct one must be kept and every repeat dropped, the first
// occurrence winning, across table growth.
func TestCliqueSetCollisions(t *testing.T) {
	var cs cliqueSet
	lists := [][]int{{1, 2}, {1, 3}, {2}, {1, 2, 3}}
	for round := 0; round < 3; round++ {
		for i, ids := range lists {
			if got, want := cs.insert(ids, 42), round == 0; got != want {
				t.Fatalf("round %d list %d %v: insert = %v, want %v", round, i, ids, got, want)
			}
		}
	}
	// Grow well past the initial table with one shared hash and with
	// hashes that differ but land in the same cell.
	for i := 0; i < 100; i++ {
		h := uint64(42)
		if i%2 == 1 {
			h = uint64(i) << 32
		}
		if !cs.insert([]int{100 + i}, h) {
			t.Fatalf("distinct list %d dropped", i)
		}
	}
	for i, ids := range lists {
		if cs.insert(ids, 42) {
			t.Fatalf("repeat of list %d %v kept after growth", i, ids)
		}
	}
	// Entries keep first-seen order.
	for k, ids := range lists {
		if !cs.equal(int32(k), ids) {
			t.Fatalf("entry %d is not %v", k, ids)
		}
	}
	// A list is not confused with its prefix or a same-length neighbour.
	if !cs.insert([]int{1}, 42) || !cs.insert([]int{1, 2, 4}, 42) {
		t.Fatal("a distinct list sharing a prefix was dropped")
	}
}

// TestCompareIndexTextMatchesSprint checks the allocation-free clique
// order against the fmt.Sprint text order it replaces, on lists whose
// elements share decimal prefixes (1, 10, 12, 100, ...).
func TestCompareIndexTextMatchesSprint(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	vals := []int{0, 1, 2, 9, 10, 11, 12, 19, 20, 99, 100, 101, 120, 1000}
	for trial := 0; trial < 5000; trial++ {
		n := 1 + r.Intn(4)
		mk := func() []int {
			pick := r.Perm(len(vals))[:n]
			out := make([]int, n)
			for i, p := range pick {
				out[i] = vals[p]
			}
			sort.Ints(out)
			return out
		}
		a, b := mk(), mk()
		if trial%3 == 0 {
			copy(b, a[:n-1])
			sort.Ints(b)
		}
		ta, tb := fmt.Sprint(a), fmt.Sprint(b)
		want := 0
		switch {
		case ta < tb:
			want = -1
		case ta > tb:
			want = 1
		}
		got := compareIndexText(a, b)
		if (got < 0) != (want < 0) || (got > 0) != (want > 0) {
			t.Fatalf("compareIndexText(%v, %v) = %d, text order %d", a, b, got, want)
		}
	}
}

// TestVerifyScheduleSlots renumbers a valid schedule's nodes so Verify
// takes each slot path — dense IDs, sparse, repeated and negative ones
// (the pointer-keyed fallback) — and checks each accepts it, then
// drops the first instruction and checks each reports the dangling
// operand. In the "clash" numbering the dropped nodes carry the ID of
// a node still scheduled, which only the pointer check in the ID slice
// tells apart.
func TestVerifyScheduleSlots(t *testing.T) {
	res, err := CoverBlock(firBlock(4), isdl.ExampleArch(4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		id    func(k int) int
		clash bool
	}{
		{"dense", func(k int) int { return k }, false},
		{"clash", func(k int) int { return k }, true},
		{"sparse", func(k int) int { return 1000 * k }, false},
		{"repeated", func(k int) int { return k % 3 }, false},
		{"negative", func(k int) int { return -1 - k }, false},
	} {
		s := res.Best.Clone()
		for k, n := range s.Nodes() {
			n.ID = c.id(k)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("%s: valid schedule rejected: %v", c.name, err)
		}
		dropped := s.Instrs[0]
		s.Instrs = s.Instrs[1:]
		if c.clash {
			for _, n := range dropped {
				n.ID = s.Instrs[0][0].ID
			}
		}
		err := s.Verify()
		if err == nil || !strings.Contains(err.Error(), "depends on unscheduled") {
			t.Fatalf("%s: Verify = %v, want a dependence on an unscheduled node", c.name, err)
		}
	}
}
