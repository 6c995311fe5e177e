package aviv

import (
	"fmt"
	"strings"
	"testing"

	"aviv/internal/bench"
	"aviv/internal/dataflow"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/lang"
	"aviv/internal/sim"
)

// The differential test harness: seeded random mini-C programs are
// compiled under both option presets and executed on the instruction
// simulator; the final data memory must match the reference interpreter
// (ir.EvalFunc) exactly. Any disagreement is a code generation
// bug (wrong cover, bad allocation, broken layout, ...), caught without
// hand-writing expected outputs.

// diffOne compiles src under opts, simulates, and compares every
// non-spill memory cell against the reference interpreter.
func diffOne(t *testing.T, src string, m *isdl.Machine, mem map[string]int64, opts Options, label string) {
	t.Helper()
	f, err := ParseAndLower(src, 1)
	if err != nil {
		t.Fatalf("%s: front end rejected generated program: %v\n%s", label, err, src)
	}
	want := make(map[string]int64, len(mem))
	for k, v := range mem {
		want[k] = v
	}
	if err := ir.EvalFunc(f, want, 0); err != nil {
		t.Fatalf("%s: reference interpreter: %v\n%s", label, err, src)
	}
	opts.Verify = true // every difftest compile also runs the static verifier
	res, err := CompileSource(src, m, 1, opts)
	if err != nil {
		t.Fatalf("%s: compile: %v\n%s", label, err, src)
	}
	simMem := make(map[string]int64, len(mem))
	for k, v := range mem {
		simMem[k] = v
	}
	got, _, err := sim.RunProgram(res.Program, simMem, 0)
	if err != nil {
		t.Fatalf("%s: simulate: %v\nsource:\n%s\nprogram:\n%s", label, err, src, res.Program)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: mem[%s] = %d, interpreter says %d\nsource:\n%s\nprogram:\n%s",
				label, k, got[k], v, src, res.Program)
		}
	}
	for k, v := range got {
		if strings.HasPrefix(k, "$") {
			continue // spill slots are the compiler's business
		}
		if _, ok := want[k]; !ok {
			t.Errorf("%s: stray write mem[%s] = %d\nsource:\n%s", label, k, v, src)
		}
	}
}

// TestDifferentialRandomPrograms is the harness entry point: 50 seeded
// programs, each compiled with the Default and Exhaustive presets.
// Arithmetic-only programs target the paper's example VLIW; programs
// with bitwise ops and shifts target the single-issue DSP, whose unit
// has the full op repertoire.
func TestDifferentialRandomPrograms(t *testing.T) {
	vliw := isdl.ExampleArchFull(4)
	dsp := isdl.SingleIssueDSP(4)
	for seed := int64(0); seed < 50; seed++ {
		bitwise := seed%2 == 1
		src, mem := bench.DiffProgram(seed, bitwise)
		m, arch := vliw, "vliw"
		if bitwise {
			m, arch = dsp, "dsp"
		}
		for _, preset := range []struct {
			name string
			opts Options
		}{
			{"default", DefaultOptions()},
			{"exhaustive", ExhaustiveOptions()},
		} {
			label := fmt.Sprintf("seed%d/%s/%s", seed, arch, preset.name)
			diffOne(t, src, m, mem, preset.opts, label)
		}
	}
}

// TestDifferentialParallelAgrees reruns a slice of the corpus through
// an 8-worker pool: the differential property must be independent of
// the pool size.
func TestDifferentialParallelAgrees(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	opts := DefaultOptions()
	opts.Parallelism = 8
	for seed := int64(0); seed < 10; seed += 2 {
		src, mem := bench.DiffProgram(seed, false)
		diffOne(t, src, m, mem, opts, fmt.Sprintf("seed%d/parallel8", seed))
	}
}

// TestAnalysesMatchOraclesOnDifftestCorpus cross-checks every global
// dataflow analysis against its brute-force path-search oracle on every
// program of the differential corpus — both the raw lowered IR (where
// planted inefficiencies survive for the analyses to find) and the
// optimized IR the back end actually consumes.
func TestAnalysesMatchOraclesOnDifftestCorpus(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		src, _ := bench.DiffProgram(seed, seed%2 == 1)
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, src)
		}
		raw, err := lang.Lower(prog, "main")
		if err != nil {
			t.Fatalf("seed %d: lower: %v\n%s", seed, err, src)
		}
		if err := dataflow.CheckOracles(raw); err != nil {
			t.Errorf("seed %d (lowered): %v\n%s", seed, err, src)
		}
		optimized, err := ParseAndLower(src, 1)
		if err != nil {
			t.Fatalf("seed %d: optimize: %v", seed, err)
		}
		if err := dataflow.CheckOracles(optimized); err != nil {
			t.Errorf("seed %d (optimized): %v\n%s", seed, err, src)
		}
	}
}
