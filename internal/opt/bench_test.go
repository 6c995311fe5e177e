package opt

import (
	"testing"

	"aviv/internal/bench"
	"aviv/internal/ir"
	"aviv/internal/lang"
)

// optimized keeps the benchmark's result live.
var optimized *ir.Func

// BenchmarkOptimize runs Optimize over sixteen 25-block programs of the
// shape the serving benchmark's warm and disk-spill workloads send. The
// programs are parsed and lowered before the timer starts, so only the
// optimizer is measured.
func BenchmarkOptimize(b *testing.B) {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range fs {
			optimized = Optimize(f)
		}
	}
}
