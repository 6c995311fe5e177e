package aviv

import (
	"fmt"
	"testing"

	"aviv/internal/asm"
	"aviv/internal/baseline"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/regalloc"
	"aviv/internal/sim"
	"aviv/internal/sndag"
)

// ----- Table I: Ex1-Ex7 on the example architecture --------------------
//
// One benchmark per row. The reported metric is the covering time (the
// paper's "CPU Time" column); b.ReportMetric adds the code size so both
// table columns regenerate from one run:
//
//	go test -bench 'TableI' -benchmem

func benchCover(b *testing.B, w bench.Workload, m *isdl.Machine, opts cover.Options) {
	b.Helper()
	var cost int
	for i := 0; i < b.N; i++ {
		res, err := cover.CoverBlock(w.Block, m, opts)
		if err != nil {
			b.Fatal(err)
		}
		cost = res.Best.Cost()
	}
	b.ReportMetric(float64(cost), "instrs")
}

func BenchmarkTableI(b *testing.B) {
	rows := []struct {
		name string
		w    bench.Workload
		regs int
	}{
		{"Ex1", bench.Ex1(), 4},
		{"Ex2", bench.Ex2(), 4},
		{"Ex3", bench.Ex3(), 4},
		{"Ex4", bench.Ex4(), 4},
		{"Ex5", bench.Ex5(), 4},
		{"Ex6", bench.Ex4(), 2},
		{"Ex7", bench.Ex5(), 2},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			benchCover(b, r.w, isdl.ExampleArch(r.regs), cover.DefaultOptions())
		})
	}
}

// The paper's parenthesised heuristics-off columns. Ex4/Ex5 explore tens
// of thousands of assignments; keep the cap modest so the bench is
// runnable (the paper's own exhaustive runs took CPU-days).
func BenchmarkTableIExhaustive(b *testing.B) {
	rows := []struct {
		name string
		w    bench.Workload
	}{
		{"Ex1", bench.Ex1()},
		{"Ex2", bench.Ex2()},
		{"Ex3", bench.Ex3()},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			opts := cover.ExhaustiveOptions()
			opts.MaxAssignments = 20000
			benchCover(b, r.w, isdl.ExampleArch(4), opts)
		})
	}
}

// ----- Table II: Ex1-Ex5 on Architecture II ----------------------------

func BenchmarkTableII(b *testing.B) {
	for _, w := range bench.PaperWorkloads() {
		b.Run(w.Name, func(b *testing.B) {
			benchCover(b, w, isdl.ArchitectureII(4), cover.DefaultOptions())
		})
	}
}

// ----- Figure-level micro-benchmarks ------------------------------------

// Fig. 4: Split-Node DAG construction.
func BenchmarkSplitNodeDAGBuild(b *testing.B) {
	for _, w := range []bench.Workload{bench.Ex1(), bench.Ex5(), bench.FIR(16)} {
		b.Run(w.Name, func(b *testing.B) {
			m := isdl.ExampleArch(4)
			for i := 0; i < b.N; i++ {
				if _, err := sndag.Build(w.Block, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Fig. 8: maximal clique generation, the algorithm the paper calls "the
// most time consuming portion".
func BenchmarkMaxCliques(b *testing.B) {
	for _, n := range []int{8, 12, 16, 20} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			par := make([][]bool, n)
			for i := range par {
				par[i] = make([]bool, n)
			}
			// Deterministic ~50% density matrix.
			state := uint64(12345)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					state = state*6364136223846793005 + 1442695040888963407
					v := state>>33%2 == 0
					par[i][j], par[j][i] = v, v
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cover.GenMaxCliques(par)
			}
		})
	}
}

// ----- End-to-end pipeline and substrate benches ------------------------

func BenchmarkFullPipeline(b *testing.B) {
	for _, w := range []bench.Workload{bench.Ex1(), bench.Ex5(), bench.FIR(8)} {
		b.Run(w.Name, func(b *testing.B) {
			m := isdl.ExampleArch(4)
			f := singleBlockFunc(w.Block)
			for i := 0; i < b.N; i++ {
				if _, err := Compile(f, m, DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBaselineSequential(b *testing.B) {
	for _, w := range []bench.Workload{bench.Ex1(), bench.Ex5()} {
		b.Run(w.Name, func(b *testing.B) {
			m := isdl.ExampleArch(4)
			var cost int
			for i := 0; i < b.N; i++ {
				sol, err := baseline.Compile(w.Block, m)
				if err != nil {
					b.Fatal(err)
				}
				cost = sol.Cost()
			}
			b.ReportMetric(float64(cost), "instrs")
		})
	}
}

func BenchmarkRegalloc(b *testing.B) {
	w := bench.FIR(12)
	m := isdl.ExampleArch(4)
	res, err := cover.CoverBlock(w.Block, m, cover.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regalloc.Allocate(res.Best); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulator(b *testing.B) {
	w := bench.FIR(8)
	m := isdl.ExampleArch(4)
	res, err := Compile(singleBlockFunc(w.Block), m, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.RunProgram(res.Program, w.Mem, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// Scaling study: covering time and code size versus block size (the
// growth behaviour behind the paper's CPU-time column).
func BenchmarkScalingFIR(b *testing.B) {
	for _, taps := range []int{4, 8, 12, 16} {
		w := bench.FIR(taps)
		b.Run(fmt.Sprintf("taps%d", taps), func(b *testing.B) {
			m := isdl.ExampleArch(4)
			var cost int
			for i := 0; i < b.N; i++ {
				res, err := cover.CoverBlock(w.Block, m, cover.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Best.Cost()
			}
			b.ReportMetric(float64(cost), "instrs")
		})
	}
}

// ----- Ablation benches: the design choices DESIGN.md calls out ---------

// BenchmarkAblation covers Ex1-Ex5 on ExampleArch(4) under each knob
// setting, one row/ExN sub-benchmark per block, each reporting its cost.
func BenchmarkAblation(b *testing.B) {
	configs := []struct {
		name string
		mut  func(*cover.Options)
	}{
		{"default", func(o *cover.Options) {}},
		{"beam1", func(o *cover.Options) { o.BeamWidth = 1 }},
		{"noPrune", func(o *cover.Options) { o.PruneIncremental = false }},
		{"noLevelWindow", func(o *cover.Options) { o.LevelWindow = -1 }},
		{"noLookahead", func(o *cover.Options) { o.Lookahead = false }},
	}
	m := isdl.ExampleArch(4)
	for _, cfg := range configs {
		opts := cover.DefaultOptions()
		cfg.mut(&opts)
		for _, w := range bench.PaperWorkloads() {
			b.Run(cfg.name+"/"+w.Name, func(b *testing.B) {
				benchCover(b, w, m, opts)
			})
		}
	}
}

// ----- Assembler / encoding benches -------------------------------------

func BenchmarkEncodeObject(b *testing.B) {
	w := bench.FIR(8)
	m := isdl.ExampleArch(4)
	res, err := Compile(singleBlockFunc(w.Block), m, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Encode(res.Program); err != nil {
			b.Fatal(err)
		}
	}
}

// ----- Front-end benches -------------------------------------------------

func BenchmarkFrontEnd(b *testing.B) {
	src := `
		s = 0;
		e = 0;
		for (i = 0; i < 16; i = i + 1) {
			s = s + x * i;
			if (i % 2) { e = e + s; } else { e = e - s; }
		}
		out = s + e;
	`
	for i := 0; i < b.N; i++ {
		if _, err := ParseAndLower(src, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// Latency study: the same block on single-cycle vs 3-cycle-multiplier
// machines (the NOP-padding cost of deep pipelines).
func BenchmarkLatencyMachines(b *testing.B) {
	mk := func(mulLat int) *isdl.Machine {
		m := isdl.ExampleArch(4)
		if mulLat > 1 {
			m.Unit("U2").SetLatency(ir.OpMul, mulLat)
			m.Unit("U3").SetLatency(ir.OpMul, mulLat)
			if err := m.Finalize(); err != nil {
				b.Fatal(err)
			}
		}
		return m
	}
	for _, lat := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("mulLat%d", lat), func(b *testing.B) {
			benchCover(b, bench.Ex5(), mk(lat), cover.DefaultOptions())
		})
	}
}
