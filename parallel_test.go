package aviv

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/ir"
	"aviv/internal/isdl"
)

// TestParallelDeterminism is the headline guarantee of the worker pool:
// the same multi-block function compiled at Parallelism 1, 2, and 8
// yields identical code size and byte-for-byte identical assembly text.
func TestParallelDeterminism(t *testing.T) {
	f, _ := bench.MultiBlock(1, 24, 16)
	if len(f.Blocks) < 8 {
		t.Fatalf("workload has %d blocks, want >= 8", len(f.Blocks))
	}
	m := isdl.ExampleArchFull(4)

	var refText string
	var refSize int
	for _, par := range []int{1, 2, 8} {
		opts := DefaultOptions()
		opts.Parallelism = par
		res, err := Compile(f, m, opts)
		if err != nil {
			t.Fatalf("Compile at Parallelism %d: %v", par, err)
		}
		text := res.Program.String()
		if par == 1 {
			refText, refSize = text, res.CodeSize()
			continue
		}
		if res.CodeSize() != refSize {
			t.Errorf("Parallelism %d: code size %d, serial %d", par, res.CodeSize(), refSize)
		}
		if text != refText {
			t.Errorf("Parallelism %d: assembly differs from serial run\n--- serial ---\n%s\n--- parallel ---\n%s",
				par, refText, text)
		}
	}
}

// TestParallelCompileValidates runs the full Fig. 1 validation loop
// (compile, verify, encode/decode, simulate, compare against the IR
// interpreter) on the multi-block workload with an 8-worker pool.
func TestParallelCompileValidates(t *testing.T) {
	f, mem := bench.MultiBlock(2, 12, 10)
	opts := DefaultOptions()
	opts.Parallelism = 8
	checkCompiled(t, f, isdl.ExampleArchFull(4), mem, opts)
}

// TestParallelErrorDeterministic: when several blocks fail to compile,
// every pool size reports the same error — the first failing block in
// original block order. ExampleArch (without compare units) cannot cover
// the conditional branches of MultiBlock, whose first compare is in b3.
func TestParallelErrorDeterministic(t *testing.T) {
	f, _ := bench.MultiBlock(1, 24, 8)
	m := isdl.ExampleArch(4) // no CMPGT unit: blocks b3, b7, ... fail
	var refErr string
	for _, par := range []int{1, 8} {
		opts := DefaultOptions()
		opts.Parallelism = par
		_, err := Compile(f, m, opts)
		if err == nil {
			t.Fatalf("Parallelism %d: expected error on compare-less machine", par)
		}
		if par == 1 {
			refErr = err.Error()
			continue
		}
		if err.Error() != refErr {
			t.Errorf("Parallelism %d error %q, serial error %q", par, err.Error(), refErr)
		}
	}
}

// TestCompileMetrics checks that CompileResult.Metrics is assembled
// from the block results: each aggregate entry equals its block's own
// record (worker and verification included), and the worker busy slots
// account for exactly the blocks' time, serial and parallel, with
// verification off and on.
func TestCompileMetrics(t *testing.T) {
	f, _ := bench.MultiBlock(3, 9, 12)
	for _, par := range []int{1, 4} {
		for _, vfy := range []bool{false, true} {
			t.Run(fmt.Sprintf("par%d/verify=%v", par, vfy), func(t *testing.T) {
				opts := DefaultOptions()
				opts.Parallelism = par
				opts.Verify = vfy
				res, err := Compile(f, isdl.ExampleArchFull(4), opts)
				if err != nil {
					t.Fatal(err)
				}
				checkCompileMetrics(t, f, res, par, vfy)
			})
		}
	}
}

func checkCompileMetrics(t *testing.T, f *ir.Func, res *CompileResult, par int, vfy bool) {
	t.Helper()
	cm := res.Metrics
	if cm == nil {
		t.Fatal("CompileResult.Metrics is nil")
	}
	if len(cm.Blocks) != len(f.Blocks) {
		t.Fatalf("metrics cover %d blocks, function has %d", len(cm.Blocks), len(f.Blocks))
	}
	if cm.Parallelism != par {
		t.Errorf("recorded parallelism %d, want %d", cm.Parallelism, par)
	}
	if len(cm.WorkerBusy) != par {
		t.Errorf("len(WorkerBusy) = %d, want %d", len(cm.WorkerBusy), par)
	}
	var blockTotal time.Duration
	for i, bm := range cm.Blocks {
		if want := f.Blocks[i].Name; bm.Block != want {
			t.Errorf("metrics block %d is %q, want %q (original order)", i, bm.Block, want)
		}
		if bm.Worker < 0 || bm.Worker >= par {
			t.Errorf("block %s worker %d out of range [0,%d)", bm.Block, bm.Worker, par)
		}
		if bm.Total <= 0 {
			t.Errorf("block %s total time %v, want > 0", bm.Block, bm.Total)
		}
		if bm.Instructions <= 0 || bm.DAGNodes <= 0 || bm.AssignmentsExplored <= 0 {
			t.Errorf("block %s counters look empty: %+v", bm.Block, bm)
		}
		if vfy && bm.Verify <= 0 {
			t.Errorf("block %s verify time %v with Verify on, want > 0", bm.Block, bm.Verify)
		}
		if !vfy && (bm.Verify != 0 || bm.Violations != 0) {
			t.Errorf("block %s has verify results with Verify off: %+v", bm.Block, bm)
		}
		// The aggregate entry is the block's own record, field for field.
		if got := res.Blocks[i].Metrics; got != bm {
			t.Errorf("block %s: BlockResult.Metrics %+v != CompileMetrics entry %+v", bm.Block, got, bm)
		}
		blockTotal += bm.Total
	}
	if busy := cm.BusyTotal(); busy != blockTotal {
		t.Errorf("sum of WorkerBusy %v != sum of block Totals %v", busy, blockTotal)
	}
	if cm.TotalAssignments() <= 0 {
		t.Errorf("TotalAssignments() = %d, want > 0", cm.TotalAssignments())
	}
	if cm.Wall <= 0 {
		t.Errorf("Wall = %v, want > 0", cm.Wall)
	}
	if u := cm.Utilization(); u <= 0 || u > 1.000001 {
		t.Errorf("Utilization() = %v, want in (0, 1]", u)
	}
	cov, peep, ra, emit, verifyTime := cm.PhaseTotals()
	if phases := cov + peep + ra + emit + verifyTime; phases <= 0 {
		t.Errorf("PhaseTotals() sum %v, want > 0", phases)
	}
	if cm.String() == "" {
		t.Error("String() report is empty")
	}
}

// TestPoolSize pins down the Parallelism resolution rules.
func TestPoolSize(t *testing.T) {
	base := DefaultOptions()
	cases := []struct {
		par, nBlocks, want int
	}{
		{1, 10, 1},
		{8, 10, 8},
		{8, 3, 3},  // never more workers than blocks
		{-5, 1, 1}, // <= 0 means GOMAXPROCS, clamped by nBlocks
		{3, 0, 1},  // degenerate: at least one worker
	}
	for _, c := range cases {
		o := base
		o.Parallelism = c.par
		if got := o.poolSize(c.nBlocks); got != c.want {
			t.Errorf("poolSize(par=%d, blocks=%d) = %d, want %d", c.par, c.nBlocks, got, c.want)
		}
	}
	o := base
	o.Parallelism = 0
	if got, max := o.poolSize(1000), runtime.GOMAXPROCS(0); got != max {
		t.Errorf("poolSize(par=0, blocks=1000) = %d, want GOMAXPROCS %d", got, max)
	}
	// A Trace forces the serial path so trace lines keep covering order.
	o = base
	o.Parallelism = 8
	o.Cover.Trace = &cover.Trace{}
	if got := o.poolSize(100); got != 1 {
		t.Errorf("poolSize with Trace = %d, want 1", got)
	}
}

// TestParallelSpeedup asserts real wall-clock gain from the pool. It
// needs hardware parallelism, so it is skipped on small hosts (CI
// containers pinned to one core cannot speed anything up).
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("host has %d CPUs; need >= 4 for a meaningful speedup measurement", runtime.NumCPU())
	}
	f, _ := bench.MultiBlock(1, 32, 16)
	m := isdl.ExampleArchFull(4)
	fastest := func(par int) time.Duration {
		opts := DefaultOptions()
		opts.Parallelism = par
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := Compile(f, m, opts); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	serial, par4 := fastest(1), fastest(4)
	speedup := float64(serial) / float64(par4)
	t.Logf("serial %v, 4 workers %v: %.2fx", serial, par4, speedup)
	if speedup < 1.5 {
		t.Errorf("speedup %.2fx at 4 workers, want >= 1.5x", speedup)
	}
}
