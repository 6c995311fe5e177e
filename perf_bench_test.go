package aviv

import (
	"testing"

	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/diskcache"
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
// times the front end (parse, lower, opt.Optimize), per-block keying,
// stitching, layout and rendering — none of the covering.
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

// BenchmarkCompileDiskRebuild is the disk-hit request path of a compile
// server whose memory tier is too small for its working set: eight
// 25-block MultiBlockSource programs are compiled once into a disk tier,
// then each iteration recompiles all eight, round-robin, through a
// 64-entry memory tier that the other seven programs flush between two
// visits. Every block rebuilds from disk — decode, Solution.Verify,
// register allocation and emission — after the same front end as
// BenchmarkCompileWarm. It reports disk hits per op.
func BenchmarkCompileDiskRebuild(b *testing.B) {
	m := isdl.ExampleArchFull(4)
	disk, err := diskcache.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Cache = cover.NewBoundedCache(64)
	opts.DiskCache = disk
	var srcs []string
	for seed := int64(0); seed < 8; seed++ {
		srcs = append(srcs, bench.MultiBlockSource(seed, 25, 6))
	}
	compileAll := func() (blocks, diskHits int) {
		for _, src := range srcs {
			res, err := CompileSource(src, m, 1, opts)
			if err != nil {
				b.Fatal(err)
			}
			rendered = res.Program.String()
			blocks += len(res.Blocks)
			diskHits += res.Metrics.DiskHits()
		}
		return blocks, diskHits
	}
	compileAll()
	if blocks, hits := compileAll(); hits != blocks {
		b.Fatalf("warm recompile rebuilt %d of %d blocks from disk", hits, blocks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		_, h := compileAll()
		hits += h
	}
	b.ReportMetric(float64(hits)/float64(b.N), "diskhits/op")
}

// rendered keeps BenchmarkCompileWarm's output live.
var rendered string
