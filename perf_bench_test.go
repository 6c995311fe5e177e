package aviv

import (
	"testing"

	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/isdl"
)

// BenchmarkCompileMultiBlock is the headline perf benchmark of the
// covering-engine fast path: a 24-block function of 16-op DAG blocks
// compiled end to end, serially, so per-block covering dominates. The
// cache sub-benchmark reuses one compile cache across iterations, which
// models recompiling unchanged blocks (the BENCH_cover.json trajectory
// tracks both).
func BenchmarkCompileMultiBlock(b *testing.B) {
	f, _ := bench.MultiBlock(1, 24, 16)
	m := isdl.ExampleArchFull(4)
	b.Run("nocache", func(b *testing.B) {
		opts := DefaultOptions()
		opts.Parallelism = 1
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compile(f, m, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cache", func(b *testing.B) {
		opts := DefaultOptions()
		opts.Parallelism = 1
		opts.Cache = cover.NewBoundedCache(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compile(f, m, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
