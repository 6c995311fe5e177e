package peephole_test

import (
	"testing"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/isdl"
	"aviv/internal/peephole"
)

// optimizeSink keeps the benchmarked calls from being optimized away.
var optimizeSink *cover.Solution

// BenchmarkPeepholeOptimize measures the Sec. IV-G pass alone over a
// fixed set of pre-peephole coverings: every block of two 25-block
// bench.MultiBlockSource programs (5 ops a block, the serving
// benchmark's program shape) on the example VLIW. One op is one
// Optimize call per block, 50 blocks in all.
func BenchmarkPeepholeOptimize(b *testing.B) {
	m := isdl.ExampleArchFull(4)
	var sols []*cover.Solution
	for seed := int64(1); seed <= 2; seed++ {
		res, err := aviv.CompileSource(bench.MultiBlockSource(seed, 25, 5), m, 1, aviv.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, br := range res.Blocks {
			sols = append(sols, br.Covering.Best)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sol := range sols {
			optimizeSink = peephole.Optimize(sol)
		}
	}
}
