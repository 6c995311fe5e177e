// The edit differential suite: the incremental compile's byte-identity
// contract, proved over a corpus of seeded programs and edit streams.
package aviv_test

import (
	"fmt"
	"maps"
	"sort"
	"testing"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/diskcache"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sim"
)

// editOracle is the initial data memory the edit suites check compiled
// programs against.
var editOracle = map[string]int64{"a": 11, "b": 7, "c": 5, "d": 3}

// checkOracle compares the memory effect of res's program on init with
// the reference interpreter's (ir.EvalFunc on res.Func). Programs the
// interpreter cannot finish within budget are skipped: runaway loops
// are out of the oracle's scope, exactly as in the fuzz harness.
func checkOracle(t *testing.T, res *aviv.CompileResult, init map[string]int64) {
	t.Helper()
	const budget = 200000
	want, mem := maps.Clone(init), maps.Clone(init)
	if ir.EvalFunc(res.Func, want, budget) != nil {
		return
	}
	got, _, err := sim.RunProgram(res.Program, mem, 2*budget)
	if err != nil {
		t.Fatalf("oracle: simulation trapped: %v", err)
	}
	vars := make([]string, 0, len(want))
	for v := range want {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		if got[v] != want[v] {
			t.Fatalf("oracle: mem[%s] = %d, interpreter says %d", v, got[v], want[v])
		}
	}
}

// editCorpusSize configures the differential sweep: 50 programs x 5
// cumulative one-line edits in full mode, a deterministic 12 x 3 subset
// under -short (the ci.sh editsmoke stage).
func editCorpusSize(t *testing.T) (programs, edits int) {
	if testing.Short() {
		return 12, 3
	}
	return 50, 5
}

// TestEditDifferentialCorpus is the incremental path's ground-truth
// suite: for every program and every edit in its stream, a compile over
// warm shared cache tiers must be byte-identical to an uncached compile
// of the same source — with the static validator on, the interpreter
// oracle armed, at worker pool sizes 1 and 8, and through both the
// memory tier and a persistent disk tier read back after a restart.
func TestEditDifferentialCorpus(t *testing.T) {
	programs, edits := editCorpusSize(t)
	machine := isdl.ExampleArchFull(4)
	baseOpts := aviv.DefaultOptions()
	baseOpts.Verify = true

	var totalStitched, totalRecompiled int
	for p := 0; p < programs; p++ {
		p := p
		// Alternate the worker pool between serial and 8-wide: half-warm
		// reuse must be order-independent at any setting.
		par := 1
		if p%2 == 1 {
			par = 8
		}
		t.Run(fmt.Sprintf("prog%d_par%d", p, par), func(t *testing.T) {
			// Small, varied programs: 8-11 requested blocks, 3-6 ops.
			src := bench.MultiBlockSource(int64(p+1), 8+p%4, 3+p%4)
			opts := baseOpts
			opts.Parallelism = par

			disk, err := diskcache.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			warm := opts
			warm.Cache = cover.NewBoundedCache(0)
			warm.DiskCache = disk
			first, err := aviv.CompileSource(src, machine, 1, warm)
			if err != nil {
				t.Fatalf("warmup compile failed: %v", err)
			}
			checkOracle(t, first, editOracle)
			for e := 0; e < edits; e++ {
				src = bench.MutateSource(src, int64(p*100+e))
				scratch, err := aviv.CompileSource(src, machine, 1, opts)
				if err != nil {
					t.Fatalf("edit %d: scratch compile failed: %v", e, err)
				}
				res, err := aviv.CompileSource(src, machine, 1, warm)
				if err != nil {
					t.Fatalf("edit %d: incremental compile failed: %v", e, err)
				}
				if got, want := res.Program.String(), scratch.Program.String(); got != want {
					t.Fatalf("edit %d: incremental output differs from scratch:\n%s\nvs\n%s", e, got, want)
				}
				checkOracle(t, res, editOracle)
				reuse := res.Metrics.Reuse()
				totalStitched += int(reuse.Stitched)
				totalRecompiled += int(reuse.Recompiled)
			}
			// Restart: a fresh memory tier over the same disk directory must
			// reproduce the final program from persisted coverings.
			restarted := opts
			restarted.Cache = cover.NewBoundedCache(0)
			restarted.DiskCache = disk
			res, err := aviv.CompileSource(src, machine, 1, restarted)
			if err != nil {
				t.Fatalf("restarted compile failed: %v", err)
			}
			checkOracle(t, res, editOracle)
			final, err := aviv.CompileSource(src, machine, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := res.Program.String(), final.Program.String(); got != want {
				t.Fatalf("restarted output differs from scratch:\n%s\nvs\n%s", got, want)
			}
			if res.Metrics.DiskHits() == 0 {
				t.Fatalf("restarted compile reused nothing from disk (%d blocks)", len(res.Blocks))
			}
		})
	}
	// Aggregate sanity: across the whole corpus the incremental path
	// must do what it is for — most blocks are reused, only edit-reached
	// ones recompile. (Per-edit counts vary with where the mutation
	// lands.)
	if totalStitched <= totalRecompiled {
		t.Fatalf("edit corpus reused %d blocks but recompiled %d; the cache is not localizing edits",
			totalStitched, totalRecompiled)
	}
	t.Logf("edit corpus: %d reused, %d recompiled", totalStitched, totalRecompiled)
}
