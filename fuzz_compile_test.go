// The whole-pipeline fuzz harness.
package aviv_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"aviv"
	"aviv/internal/asm"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/dataflow/dataflowtest"
	"aviv/internal/dataflow/diag"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/lang"
	"aviv/internal/sim"
	"aviv/internal/verify"
	"aviv/internal/zoo"
)

// fuzzZooOnce regenerates the shipped zoo (seed 1, 27 machines — the
// same constants zoo_diff_test.go pins) once per process. It is a
// separate once from the in-package zooOnce only because this file is
// external.
var fuzzZooOnce = sync.OnceValues(func() ([]*zoo.Entry, error) {
	return zoo.Generate(1, 27)
})

// fuzzMachinePool returns the machines FuzzCompileSource targets: the
// paper's example VLIW plus one zoo machine per class (the first cycle
// of the shipped zoo), so the fuzzer explores machine diversity, not
// just program diversity. Falls back to the example machine alone if
// zoo generation ever fails — the fuzz target must not Fatal in F.
func fuzzMachinePool() []*isdl.Machine {
	pool := []*isdl.Machine{isdl.ExampleArchFull(4)}
	if entries, err := fuzzZooOnce(); err == nil {
		for _, e := range entries[:len(zoo.Classes())] {
			pool = append(pool, e.M)
		}
	}
	return pool
}

// FuzzCompileSource drives the whole pipeline from arbitrary source
// text, on a fuzzer-chosen machine from the zoo-backed pool. Invariants:
// the compiler never panics; whatever it accepts must round-trip through
// the binary object format; if the reference interpreter finishes the
// program within budget, the simulated program must finish too and leave
// the same data memory behind; and a one-line edit compiled over warm
// cache tiers must agree byte for byte with a from-scratch compile of
// the edited program.
func FuzzCompileSource(f *testing.F) {
	seeds := []string{
		"x = a + b;",
		"out = (a + b) - (c * d);",
		"if (a > b) { m = a; } else { m = b; }",
		"s = 0; for (i = 0; i < 4; i = i + 1) { s = s + a; }",
		"while (n > 0) { s = s + n; n = n - 1; }",
		// Multi-block control flow: chained conditionals.
		"if (a > 0) { x = a; } if (b > 0) { y = b; } z = x + y;",
		// An unrolled-loop shape: straight-line repetition.
		"s = 0; s = s + a * a; s = s + b * b; s = s + c * c; s = s + d * d;",
		"x = -a; y = ~b; z = x * y + 1;",
		"if (a == b) { r = 1; } else { if (a < b) { r = 2; } else { r = 3; } }",
		// Non-ASCII identifiers become memory names in the object.
		"größe = ärger + 1;",
	}
	for i, s := range seeds {
		// Spread the seed programs across the machine pool so the seed
		// corpus alone already exercises every zoo class.
		f.Add(s, uint64(i))
	}
	pool := fuzzMachinePool()
	f.Fuzz(func(t *testing.T, src string, zooPick uint64) {
		m := pool[zooPick%uint64(len(pool))]
		// The dataflow analyses and the diagnostics pass must handle
		// anything the front end accepts: no panics, solver agreeing with
		// the brute-force oracles, and a deterministic report.
		if prog, perr := lang.Parse(src); perr == nil {
			if lowered, lerr := lang.Lower(prog, "main"); lerr == nil {
				if oerr := dataflowtest.CheckOracles(lowered); oerr != nil {
					t.Fatalf("analysis/oracle disagreement for %q: %v", src, oerr)
				}
				rep := diag.Analyze(lowered)
				if again := diag.Analyze(lowered); again.String() != rep.String() {
					t.Fatalf("non-deterministic diagnostics for %q:\n%s\nvs\n%s", src, rep.String(), again.String())
				}
			}
		}
		opts := aviv.DefaultOptions()
		opts.Verify = true
		res, err := aviv.CompileSource(src, m, 1, opts)
		if err != nil {
			// Rejection (parse error, unsupported op, ...) is fine — but a
			// translation-validation failure means the compiler produced
			// broken code and must fail loudly, not hide in the corpus.
			var verr *verify.VerifyError
			if errors.As(err, &verr) {
				t.Fatalf("verifier rejected compiled output for %q: %v", src, verr)
			}
			return
		}
		// The binary object format must accept anything the compiler emits.
		obj, err := asm.Encode(res.Program)
		if err != nil {
			t.Fatalf("object encode failed for %q: %v", src, err)
		}
		loaded, err := asm.Decode(obj, m)
		if err != nil {
			t.Fatalf("object round trip failed for %q: %v", src, err)
		}
		// The emitted program must be byte-identical under a parallel
		// worker pool.
		par := opts
		par.Parallelism = 8
		res8, err := aviv.CompileSource(src, m, 1, par)
		if err != nil {
			t.Fatalf("parallel compile failed after serial succeeded for %q: %v", src, err)
		}
		if res8.Program.String() != res.Program.String() {
			t.Fatalf("parallel output differs for %q:\n%s\nvs\n%s", src, res.Program, res8.Program)
		}
		// The edit dimension: mutate the source, compile the mutant over
		// cache tiers warmed on the original (so unchanged blocks are
		// actually reused), and cross-check against a from-scratch compile
		// of the mutant. Acceptance must agree, and on success the outputs
		// must be byte-identical. A restart — a fresh memory tier over the
		// same disk store — must agree too.
		if edited := bench.MutateSource(src, int64(zooPick)); edited != src {
			warm := opts
			warm.Cache = cover.NewBoundedCache(0)
			warm.DiskCache = newMapStore()
			if _, werr := aviv.CompileSource(src, m, 1, warm); werr != nil {
				t.Fatalf("cached compile rejected %q after CompileSource accepted it: %v", src, werr)
			}
			sres, serr := aviv.CompileSource(edited, m, 1, opts)
			restarted := warm
			restarted.Cache = cover.NewBoundedCache(0)
			for _, o := range []aviv.Options{warm, restarted} {
				ires, ierr := aviv.CompileSource(edited, m, 1, o)
				if (ierr == nil) != (serr == nil) {
					t.Fatalf("cached/scratch acceptance disagree for edit of %q: cached %v, scratch %v", src, ierr, serr)
				}
				if ierr == nil && ires.Program.String() != sres.Program.String() {
					t.Fatalf("cached output differs from scratch for edit of %q:\n%s\nvs\n%s",
						src, ires.Program, sres.Program)
				}
			}
		}
		// Reference semantics with a finite budget: programs the
		// interpreter cannot finish (runaway loops) are out of scope.
		f2, err := aviv.ParseAndLower(src, 1)
		if err != nil {
			t.Fatalf("ParseAndLower failed after CompileSource succeeded for %q: %v", src, err)
		}
		want := map[string]int64{"a": 6, "b": 4, "c": 3, "d": 2, "n": 3, "x": 1, "y": 1}
		if ir.EvalFunc(f2, want, 200000) != nil {
			return
		}
		mem := map[string]int64{"a": 6, "b": 4, "c": 3, "d": 2, "n": 3, "x": 1, "y": 1}
		got, _, err := sim.RunProgram(loaded, mem, 400000)
		if err != nil {
			t.Fatalf("simulation trapped for %q: %v\n%s", src, err, res.Program)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("mem[%s] = %d, interpreter says %d for %q\n%s", k, got[k], v, src, res.Program)
			}
		}
		for k := range got {
			if !strings.HasPrefix(k, "$") {
				if _, ok := want[k]; !ok {
					t.Fatalf("stray write mem[%s] for %q", k, src)
				}
			}
		}
	})
}
