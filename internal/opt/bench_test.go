package opt

import (
	"testing"

	"aviv/internal/bench"
	"aviv/internal/ir"
	"aviv/internal/lang"
)

// optimized keeps the benchmark's result live.
var optimized *ir.Func

// benchFuncs returns sixteen 25-block programs of the shape the serving
// benchmark's warm and disk-spill workloads send, parsed and lowered.
func benchFuncs(b *testing.B) []*ir.Func {
	var fs []*ir.Func
	for seed := int64(0); seed < 16; seed++ {
		p, err := lang.Parse(bench.MultiBlockSource(seed, 25, 6))
		if err != nil {
			b.Fatal(err)
		}
		f, err := lang.Lower(p, "main")
		if err != nil {
			b.Fatal(err)
		}
		fs = append(fs, f)
	}
	return fs
}

// BenchmarkOptimize runs Optimize over benchFuncs. The programs are
// parsed and lowered before the timer starts, so only the optimizer is
// measured.
func BenchmarkOptimize(b *testing.B) {
	fs := benchFuncs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			optimized = Optimize(f)
		}
	}
}

// BenchmarkGlobalOptimize runs the whole-function passes alone over
// benchFuncs. Each iteration starts from a shallow copy of the
// functions as optimizeLocal left them (the global passes replace
// blocks, never edit them), so only globalOptimize is measured.
func BenchmarkGlobalOptimize(b *testing.B) {
	e := newEmitter()
	var local []*ir.Func
	for _, f := range benchFuncs(b) {
		local = append(local, optimizeLocal(&e, f))
	}
	work := make([]ir.Func, len(local))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k, f := range local {
			work[k] = ir.Func{Name: f.Name, Blocks: append(work[k].Blocks[:0], f.Blocks...)}
		}
		b.StartTimer()
		for k := range work {
			globalOptimize(&e, &work[k])
		}
	}
}
