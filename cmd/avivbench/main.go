// Command avivbench regenerates every table and figure of the paper's
// evaluation (Sec. VI) plus the worked examples of Secs. III-IV:
//
//	avivbench -table 1            Table I  (example architecture, Ex1-Ex7)
//	avivbench -table 2            Table II (Architecture II, Ex1-Ex5)
//	avivbench -table 1 -exhaustive  ... including heuristics-off columns
//	avivbench -fig N              Figures 2-9 (worked examples)
//	avivbench -baseline           concurrent vs sequential-phase comparison
//	avivbench -ablation           heuristic knob ablation study
//	avivbench -parscale           parallel block-compilation speedup study
//	avivbench -stats -parallel 4  compile-metrics report at a pool size
//	avivbench -zoo                per-machine-class bench matrix over the machine zoo
//	avivbench -all                every table, figure and study above except -stats and -zoo
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"aviv"
	"aviv/internal/asm"
	"aviv/internal/baseline"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/dataflow/diag"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/place"
	"aviv/internal/regalloc"
	"aviv/internal/sim"
	"aviv/internal/sndag"
)

func main() {
	table := flag.Int("table", 0, "reproduce Table 1 or 2")
	fig := flag.Int("fig", 0, "reproduce Figure 2..9")
	exhaustive := flag.Bool("exhaustive", false, "also run heuristics-off (paper's parenthesised columns; slow)")
	baselineFlag := flag.Bool("baseline", false, "compare concurrent covering against the sequential-phase baseline")
	ablation := flag.Bool("ablation", false, "run the heuristic ablation study")
	scaling := flag.Bool("scaling", false, "measure covering effort vs block size")
	rom := flag.Bool("rom", false, "compare code ROM size (instrs x word width) across machines")
	suite := flag.Bool("suite", false, "run the extended DSP kernel suite across machines (simulator-validated)")
	parscale := flag.Bool("parscale", false, "measure parallel block-compilation speedup on a multi-block workload")
	parallel := flag.Int("parallel", 0, "worker-pool size for -stats and the top -parscale row (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print the compile-metrics report for the multi-block workload at -parallel N")
	all := flag.Bool("all", false, "run every table, figure, and study")
	zooFlag := flag.Bool("zoo", false, "run the per-machine-class bench matrix over the generated machine zoo")
	zooJSON := flag.String("zoojson", "", "run the zoo matrix and write a JSON report to this file (implies -zoo)")
	zooSeed := flag.Uint64("zooseed", 1, "machine-zoo generation seed")
	zooCount := flag.Int("zoocount", 27, "number of zoo machines (three cycles over the nine classes)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken at exit) to this file")
	flag.Parse()

	ran := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "avivbench:", err)
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	if *all || *table == 1 {
		ran = true
		rows, err := bench.TableI(bench.TableConfig{Exhaustive: *exhaustive || *all, Peephole: true})
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.Format("Table I — example architecture (Fig. 3), Ex6/Ex7 = Ex4/Ex5 with 2 regs/file", rows))
	}
	if *all || *table == 2 {
		ran = true
		rows, err := bench.TableII(bench.TableConfig{Exhaustive: *exhaustive || *all, Peephole: true})
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.Format("Table II — Architecture II (no U3, no SUB on U1)", rows))
	}
	if *fig != 0 || *all {
		ran = true
		figs := []int{*fig}
		if *all {
			figs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
		}
		for _, f := range figs {
			if err := figure(f); err != nil {
				fail(err)
			}
		}
	}
	if *baselineFlag || *all {
		ran = true
		if err := baselineStudy(); err != nil {
			fail(err)
		}
	}
	if *ablation || *all {
		ran = true
		if err := ablationStudy(); err != nil {
			fail(err)
		}
	}
	if *scaling || *all {
		ran = true
		exhUpTo := 6
		if *all {
			exhUpTo = 4 // keep -all under a minute
		}
		rows, err := bench.Scaling(14, exhUpTo)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.FormatScaling(rows))
	}
	if *rom || *all {
		ran = true
		if err := romStudy(); err != nil {
			fail(err)
		}
	}
	if *suite || *all {
		ran = true
		if err := suiteStudy(); err != nil {
			fail(err)
		}
	}
	if *parscale || *all {
		ran = true
		if err := parallelScaleStudy(*parallel); err != nil {
			fail(err)
		}
	}
	if *stats {
		ran = true
		if err := statsReport(*parallel); err != nil {
			fail(err)
		}
	}
	if *zooFlag || *zooJSON != "" {
		ran = true
		if err := zooStudy(*zooJSON, *zooSeed, *zooCount); err != nil {
			fail(err)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func figure(n int) error {
	fmt.Printf("==== Figure %d ====\n", n)
	switch n {
	case 1:
		fmt.Println(`Fig. 1 is the compiler framework; it is exercised end to end by
cmd/avivcc (source + ISDL -> assembly -> binary -> simulation) and by
examples/quickstart.`)
	case 2:
		w := bench.Ex1()
		fmt.Println("The example basic block DAG (Ex1): out = (a+b) - (c*d)")
		fmt.Print(w.Block.String())
		fmt.Println("\nGraphviz:")
		fmt.Print(w.Block.DOT())
	case 3:
		fmt.Println(isdl.ExampleArch(4).Describe())
	case 4:
		w := bench.Ex1()
		d, err := sndag.Build(w.Block, isdl.ExampleArch(4))
		if err != nil {
			return err
		}
		fmt.Print(d.Describe())
		fmt.Println("\nGraphviz:")
		fmt.Print(d.DOT())
	case 5:
		w := bench.Ex1()
		opts := cover.DefaultOptions()
		tr := &cover.Trace{}
		opts.Trace = tr
		res, err := cover.CoverBlock(w.Block, isdl.ExampleArch(4), opts)
		if err != nil {
			return err
		}
		fmt.Println("Overall covering algorithm trace for Ex1 (Fig. 5 stages):")
		fmt.Println(tr.String())
		fmt.Print(res.Best.String())
	case 6:
		// The paper's pruning example: the SUB feeds a COMPL on U1.
		bb := ir.NewBuilder("fig6")
		sum := bb.Add(bb.Load("a"), bb.Load("b"))
		prod := bb.Mul(bb.Load("c"), bb.Load("d"))
		bb.Store("out", bb.Op(ir.OpCompl, bb.Sub(sum, prod)))
		bb.Return()
		blk := bb.Finish()
		opts := cover.DefaultOptions()
		tr := &cover.Trace{}
		opts.Trace = tr
		if _, err := cover.CoverBlock(blk, isdl.ExampleArch(4), opts); err != nil {
			return err
		}
		fmt.Println("Assignment search with incremental costs and pruning (X = pruned):")
		for _, l := range tr.Lines {
			fmt.Println(l)
		}
	case 7, 8:
		m := isdl.ExampleArch(4)
		// Reconstruct the paper's {N2, N9, N10, N14} assignment.
		n14 := &cover.SNode{ID: 0, Kind: cover.OpNode, Unit: "U3", Op: ir.OpAdd}
		n9 := &cover.SNode{ID: 1, Kind: cover.MoveNode, Step: isdl.Transfer{
			From: isdl.UnitLoc("U3"), To: isdl.UnitLoc("U2"), Bus: "DB"}}
		n2 := &cover.SNode{ID: 2, Kind: cover.OpNode, Unit: "U2", Op: ir.OpSub}
		n10 := &cover.SNode{ID: 3, Kind: cover.OpNode, Unit: "U2", Op: ir.OpMul}
		cover.Link(n14, n9)
		cover.Link(n9, n2)
		nodes := []*cover.SNode{n14, n9, n2, n10}
		names := []string{"N14", "N9", "N2", "N10"}
		par := cover.ParallelMatrix(nodes, m, -1)
		if n == 7 {
			fmt.Println("Pairwise parallelism matrix (0 = can execute in parallel):")
			fmt.Printf("%6s", "")
			for _, nm := range names {
				fmt.Printf("%5s", nm)
			}
			fmt.Println()
			for i := range nodes {
				fmt.Printf("%6s", names[i])
				for j := range nodes {
					v := 1
					if par[i][j] || i == j { // the paper prints 0 on the diagonal
						v = 0
					}
					fmt.Printf("%5d", v)
				}
				fmt.Println()
			}
		} else {
			fmt.Println("Maximal cliques generated by the Fig. 8 algorithm:")
			for _, c := range cover.GenMaxCliques(par) {
				fmt.Print("  {")
				for i, idx := range c {
					if i > 0 {
						fmt.Print(", ")
					}
					fmt.Print(names[idx])
				}
				fmt.Println("}")
			}
		}
	case 9:
		// Force spills: a 4-tap FIR on a single-issue machine with
		// 2-register files genuinely exceeds the register resources, so
		// the covering inserts load (L) and spill (S) nodes as in the
		// paper's Fig. 9.
		w := bench.FIR(4)
		opts := cover.DefaultOptions()
		tr := &cover.Trace{}
		opts.Trace = tr
		res, err := cover.CoverBlock(w.Block, isdl.SingleIssueDSP(2), opts)
		if err != nil {
			return err
		}
		fmt.Println("Load/spill insertion (4-tap FIR on a 2-register single-issue machine):")
		for _, l := range tr.Lines {
			fmt.Println(l)
		}
		fmt.Printf("\n%d spills inserted; final schedule:\n%s", res.Best.SpillCount, res.Best)
	default:
		return fmt.Errorf("unknown figure %d (supported: 1-9)", n)
	}
	fmt.Println()
	return nil
}

// suiteStudy compiles the extended DSP kernel suite for each machine,
// validates every binary on the simulator against the reference
// interpreter, and prints code sizes.
func suiteStudy() error {
	fmt.Println("==== Extended DSP kernel suite (every cell simulator-validated) ====")
	machines := []*isdl.Machine{
		isdl.ExampleArch(4), isdl.ArchitectureII(4), isdl.SingleIssueDSP(4),
		isdl.WideDSP(4), isdl.ClusteredVLIW(4), isdl.DualMemDSP(4),
	}
	suite := bench.DSPSuite()
	fmt.Printf("%-10s", "kernel")
	for _, m := range machines {
		fmt.Printf("%16s", m.Name)
	}
	fmt.Println()
	for _, w := range suite {
		fmt.Printf("%-10s", w.Name)
		want := map[string]int64{}
		for k, v := range w.Mem {
			want[k] = v
		}
		if _, err := ir.EvalBlock(w.Block, want); err != nil {
			return err
		}
		for _, m := range machines {
			opts := cover.DefaultOptions()
			if len(m.Memories) > 1 {
				// Banked memories: auto-place the variables.
				f := &ir.Func{Name: w.Name, Blocks: []*ir.Block{w.Block}}
				opts.VarPlacement = place.Assign(f, m)
			}
			res, err := cover.CoverBlock(w.Block, m, opts)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", w.Name, m.Name, err)
			}
			alloc, err := regalloc.Allocate(res.Best)
			if err != nil {
				return err
			}
			blk, err := asm.EmitBlock(res.Best, alloc)
			if err != nil {
				return err
			}
			prog := &asm.Program{Machine: m, Blocks: []*asm.Block{blk}}
			got, _, err := sim.RunProgram(prog, w.Mem, 0)
			if err != nil {
				return fmt.Errorf("%s on %s: simulate: %w", w.Name, m.Name, err)
			}
			for k, v := range want {
				if got[k] != v {
					return fmt.Errorf("%s on %s: mem[%s] = %d, want %d", w.Name, m.Name, k, got[k], v)
				}
			}
			fmt.Printf("%16d", res.Best.Cost())
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

// romStudy compares total program ROM bits across machines: the real
// cost behind the paper's minimum-code-size objective (on-chip ROM).
func romStudy() error {
	fmt.Println("==== Code ROM size across machines (Ex1-Ex5 application) ====")
	fmt.Printf("%-16s %10s %8s %10s %10s\n", "machine", "word bits", "instrs", "ROM bits", "hw area")
	for _, m := range []*isdl.Machine{
		isdl.ExampleArch(4), isdl.ArchitectureII(4), isdl.SingleIssueDSP(4), isdl.WideDSP(4),
	} {
		layout := asm.NewWordLayout(m)
		total := 0
		for _, w := range bench.PaperWorkloads() {
			res, err := cover.CoverBlock(w.Block, m, cover.DefaultOptions())
			if err != nil {
				return err
			}
			total += res.Best.Cost()
		}
		fmt.Printf("%-16s %10d %8d %10d %10d\n",
			m.Name, layout.Bits, total, total*layout.Bits, m.HardwareCost())
	}
	fmt.Println()
	return nil
}

// parallelWorkload is the many-block function used by the parallel
// pipeline studies: enough independent covering problems to keep an
// 8-worker pool busy.
func parallelWorkload() (*ir.Func, map[string]int64) {
	return bench.MultiBlock(1, 24, 16)
}

// parallelScaleStudy measures the wall-clock speedup of the parallel
// block-compilation pipeline, verifying that the emitted assembly is
// byte-for-byte identical at every pool size and that the compiled
// program simulates to the reference interpreter's memory state.
func parallelScaleStudy(maxPar int) error {
	f, mem := parallelWorkload()
	m := isdl.ExampleArchFull(4)
	want := map[string]int64{}
	for k, v := range mem {
		want[k] = v
	}
	if err := ir.EvalFunc(f, want, 0); err != nil {
		return err
	}
	fmt.Printf("==== Parallel block compilation (%d blocks, %d CPUs) ====\n",
		len(f.Blocks), runtime.NumCPU())
	if runtime.NumCPU() < 4 {
		fmt.Println("(host has fewer than 4 CPUs: pool sizes above the core count cannot speed up wall clock)")
	}
	fmt.Printf("%-12s %12s %9s %12s\n", "parallelism", "wall", "speedup", "utilization")
	pools := []int{1, 2, 4, 8}
	if maxPar > 8 {
		pools = append(pools, maxPar)
	}
	var refText string
	var refWall time.Duration
	for _, par := range pools {
		opts := aviv.DefaultOptions()
		opts.Parallelism = par
		opts.Verify = true // every parscale compile is also translation-validated
		var res *aviv.CompileResult
		best := time.Duration(1<<63 - 1)
		util := 0.0
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			r, err := aviv.Compile(f, m, opts)
			if err != nil {
				return err
			}
			if d := time.Since(start); d < best {
				best, res, util = d, r, r.Metrics.Utilization()
			}
		}
		text := res.Program.String()
		if par == 1 {
			refText, refWall = text, best
			got, _, err := sim.RunProgram(res.Program, mem, 0)
			if err != nil {
				return err
			}
			for k, v := range want {
				if got[k] != v {
					return fmt.Errorf("parscale: mem[%s] = %d, want %d", k, got[k], v)
				}
			}
		} else if text != refText {
			return fmt.Errorf("parscale: assembly at parallelism %d differs from serial output", par)
		}
		fmt.Printf("%-12d %12v %8.2fx %11.0f%%\n",
			par, best.Round(time.Microsecond), float64(refWall)/float64(best), 100*util)
	}
	fmt.Println("(assembly verified byte-for-byte identical at every pool size)")
	fmt.Println()
	return nil
}

// statsReport prints the compile-metrics report for the multi-block
// workload at the requested pool size.
func statsReport(par int) error {
	f, _ := parallelWorkload()
	m := isdl.ExampleArchFull(4)
	opts := aviv.DefaultOptions()
	opts.Parallelism = par
	opts.Verify = true // the verify phase shows up in the report below
	res, err := aviv.Compile(f, m, opts)
	if err != nil {
		return err
	}
	// The compile pipeline runs no global analysis; a diagnostics pass
	// over the workload times every analysis and counts diagnostics.
	rep := diag.Analyze(f)
	fmt.Printf("==== Compile metrics (%s, code size %d) ====\n", f.Name, res.CodeSize())
	fmt.Print(res.Metrics.String())
	fmt.Println(rep.Metrics)
	fmt.Println()
	return nil
}

func baselineStudy() error {
	fmt.Println("==== Concurrent covering vs sequential phase-ordered baseline ====")
	fmt.Printf("%-8s %12s %12s %10s\n", "Block", "concurrent", "sequential", "saving")
	workloads := append(bench.PaperWorkloads(), bench.FIR(8), bench.VectorAdd(6), bench.Chain(10))
	m := isdl.ExampleArch(4)
	for _, w := range workloads {
		conc, err := cover.CoverBlock(w.Block, m, cover.DefaultOptions())
		if err != nil {
			return err
		}
		base, err := baseline.Compile(w.Block, m)
		if err != nil {
			return err
		}
		saving := float64(base.Cost()-conc.Best.Cost()) / float64(base.Cost()) * 100
		fmt.Printf("%-8s %12d %12d %9.1f%%\n", w.Name, conc.Best.Cost(), base.Cost(), saving)
	}
	fmt.Println()
	return nil
}

func ablationStudy() error {
	fmt.Println("==== Heuristic ablation (Ex1-Ex5 on the example architecture) ====")
	configs := []struct {
		name string
		mut  func(*cover.Options)
	}{
		{"default", func(o *cover.Options) {}},
		{"beam=1", func(o *cover.Options) { o.BeamWidth = 1 }},
		{"no-prune", func(o *cover.Options) { o.PruneIncremental = false }},
		{"no-level-window", func(o *cover.Options) { o.LevelWindow = -1 }},
		{"window=1", func(o *cover.Options) { o.LevelWindow = 1 }},
		{"no-lookahead", func(o *cover.Options) { o.Lookahead = false }},
	}
	m := isdl.ExampleArch(4)
	fmt.Printf("%-16s", "config")
	for _, w := range bench.PaperWorkloads() {
		fmt.Printf("%8s", w.Name)
	}
	fmt.Printf("%12s\n", "total time")
	for _, cfg := range configs {
		opts := cover.DefaultOptions()
		cfg.mut(&opts)
		fmt.Printf("%-16s", cfg.name)
		start := time.Now()
		for _, w := range bench.PaperWorkloads() {
			res, err := cover.CoverBlock(w.Block, m, opts)
			if err != nil {
				return err
			}
			fmt.Printf("%8d", res.Best.Cost())
		}
		fmt.Printf("%12v\n", time.Since(start).Round(time.Millisecond))
	}
	fmt.Println()
	return nil
}
