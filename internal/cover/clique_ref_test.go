package cover

import (
	"fmt"
	"sort"
	"testing"

	"aviv/internal/bitset"
)

// genMaxCliquesBoolRef is the pre-bitset Fig. 8 implementation over a
// [][]bool matrix, retained verbatim as a differential oracle: brute
// force caps out around a dozen nodes, but this reference scales to the
// multi-word (n > 64) matrices the packed implementation must also get
// right, and it anchors the old-vs-bitset benchmark.
func genMaxCliquesBoolRef(par [][]bool) [][]int {
	n := len(par)
	var out [][]int
	seen := make(map[string]bool)

	record := func(clique []int) {
		c := append([]int(nil), clique...)
		sort.Ints(c)
		key := fmt.Sprint(c)
		if !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}

	parAll := func(i int, clique []int) bool {
		for _, j := range clique {
			if !par[i][j] {
				return false
			}
		}
		return true
	}
	containsInt := func(list []int, x int) bool {
		for _, v := range list {
			if v == x {
				return true
			}
		}
		return false
	}

	var gen func(clique []int, index int)
	gen = func(clique []int, index int) {
		var cand []int
		for i := 0; i < n; i++ {
			if parAll(i, clique) && !containsInt(clique, i) {
				cand = append(cand, i)
			}
		}
		var rest []int
		for ci, i := range cand {
			universal := true
			for cj, j := range cand {
				if ci != cj && !par[i][j] {
					universal = false
					break
				}
			}
			if universal {
				if i < index {
					return // pruning condition of Fig. 8
				}
				clique = append(clique, i)
			} else {
				rest = append(rest, i)
			}
		}
		if len(rest) == 0 {
			record(clique)
			return
		}
		for _, i := range rest {
			next := index
			if i > next {
				next = i
			}
			gen(append(append([]int(nil), clique...), i), next)
		}
	}

	for i := 0; i < n; i++ {
		gen([]int{i}, i)
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) > len(out[b])
		}
		return fmt.Sprint(out[a]) < fmt.Sprint(out[b])
	})
	return out
}

// sparseRandomMatrix builds a symmetric matrix where each pair is
// parallel with probability num/den — sparse enough that clique counts
// stay sane past 64 nodes.
func sparseRandomMatrix(seed int64, n, num, den int) [][]bool {
	state := uint64(seed)*0x9E3779B97F4A7C15 + 1
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	par := make([][]bool, n)
	for i := range par {
		par[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := next()%uint64(den) < uint64(num)
			par[i][j], par[j][i] = v, v
		}
	}
	return par
}

// TestGenMaxCliquesMultiWord crosses the 64-node word boundary: the
// packed implementation must agree with the retained bool reference on
// sparse matrices of 65..130 nodes, where every bitset row spans
// multiple words and the boundary bits (63, 64, 127, 128) carry cliques.
func TestGenMaxCliquesMultiWord(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		n        int
		num, den int
	}{
		{1, 65, 1, 10},
		{2, 70, 1, 8},
		{3, 96, 1, 12},
		{4, 128, 1, 16},
		{5, 130, 1, 16},
	} {
		par := sparseRandomMatrix(tc.seed, tc.n, tc.num, tc.den)
		got := GenMaxCliques(par)
		want := genMaxCliquesBoolRef(par)
		if len(got) != len(want) {
			t.Fatalf("n=%d seed=%d: got %d cliques, want %d", tc.n, tc.seed, len(got), len(want))
		}
		for i := range got {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("n=%d seed=%d: clique %d = %v, want %v", tc.n, tc.seed, i, got[i], want[i])
			}
		}
	}
}

// TestGenMaxCliquesBoolRefAgreesSmall ties the retained reference to the
// existing brute-force oracle, so the multi-word test above checks the
// packed implementation against a known-good baseline.
func TestGenMaxCliquesBoolRefAgreesSmall(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		n := 2 + int(seed%7)
		par := randomMatrix(seed, n)
		got := genMaxCliquesBoolRef(par)
		want := bruteForceMaxCliques(par)
		gm := map[string]bool{}
		for _, c := range got {
			gm[fmt.Sprint(c)] = true
		}
		if len(gm) != len(want) {
			t.Fatalf("seed %d: ref found %d cliques, brute force %d", seed, len(gm), len(want))
		}
		for _, c := range want {
			sort.Ints(c)
			if !gm[fmt.Sprint(c)] {
				t.Fatalf("seed %d: reference missing clique %v", seed, c)
			}
		}
	}
}

// BenchmarkGenMaxCliques compares the retained bool implementation with
// the packed-bitset one on the same sparse 96-node matrix.
func BenchmarkGenMaxCliques(b *testing.B) {
	par := sparseRandomMatrix(7, 96, 1, 10)
	n := len(par)
	pm := bitset.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if par[i][j] {
				pm.Row(i).Set(j)
			}
		}
	}
	b.Run("boolref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			genMaxCliquesBoolRef(par)
		}
	})
	b.Run("bitset", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			genMaxCliques(pm, 0, new(cliqueSet))
		}
	})
}
