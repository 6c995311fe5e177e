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
// models recompiling unchanged blocks. Run both with
//
//	go test -run '^$' -bench 'BenchmarkCompileMultiBlock|BenchmarkCompileWarm' -benchmem .
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

// BenchmarkCompileWarm is the warm request path of a compile server:
// sixteen 25-block MultiBlockSource programs are compiled once into a
// shared memory tier, then each iteration recompiles all sixteen from
// source and renders their assembly while every block hits memory. It
// times the front end (parse, lower, opt.Optimize, liveness), per-block
// keying, stitching, layout and rendering — none of the covering.
func BenchmarkCompileWarm(b *testing.B) {
	m := isdl.ExampleArchFull(4)
	opts := DefaultOptions()
	opts.Cache = cover.NewBoundedCache(4096)
	var srcs []string
	for seed := int64(0); seed < 16; seed++ {
		srcs = append(srcs, bench.MultiBlockSource(seed, 25, 6))
	}
	compileAll := func() (blocks, hits int) {
		for _, src := range srcs {
			res, err := CompileSource(src, m, 1, opts)
			if err != nil {
				b.Fatal(err)
			}
			rendered = res.Program.String()
			for _, br := range res.Blocks {
				blocks++
				if br.Metrics.CacheHit {
					hits++
				}
			}
		}
		return blocks, hits
	}
	compileAll()
	if blocks, hits := compileAll(); hits != blocks {
		b.Fatalf("warm recompile hit memory on %d of %d blocks", hits, blocks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compileAll()
	}
}

// rendered keeps BenchmarkCompileWarm's output live.
var rendered string
