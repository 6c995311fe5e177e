package aviv

import (
	"fmt"
	"sync"
	"testing"

	"aviv/internal/bench"
	"aviv/internal/isdl"
	"aviv/internal/verify"
	"aviv/internal/zoo"
)

// The cross-machine differential harness: the machine zoo supplies
// target diversity (clustered banks, multi-cycle units, sparse transfer
// graphs, hostile constraints), and every program of the differential
// corpus must compile on every zoo machine, pass the static verifier,
// and leave the exact memory state the reference interpreter predicts.
// This is the paper's retargetability claim under test: one engine, any
// ISDL-described target.

// zooSeed and zooCount fix the shipped zoo: 27 machines (3 full cycles
// over the 9 classes) from seed 1. Changing either changes the matrix
// everywhere — tests, fuzz machine pool, and avivbench -zoo all derive
// from zoo.Generate, so a failure reported by any of them reproduces
// from (seed, index) alone.
const (
	zooSeed  = 1
	zooCount = 27
)

var zooOnce = sync.OnceValues(func() ([]*zoo.Entry, error) {
	return zoo.Generate(zooSeed, zooCount)
})

// zooEntries returns the shared zoo, generating it once per process.
func zooEntries(t testing.TB) []*zoo.Entry {
	entries, err := zooOnce()
	if err != nil {
		t.Fatalf("zoo generation failed: %v", err)
	}
	return entries
}

// zooCorpus returns the differential program corpus: the 50 seeded
// difftest programs plus multi-block MultiBlockSource programs. The
// bitwise half of the difftest corpus is included — every zoo machine
// offers the full core repertoire, so there is no machine the corpus
// must avoid.
func zooCorpus() []struct {
	label string
	src   string
	mem   map[string]int64
} {
	var corpus []struct {
		label string
		src   string
		mem   map[string]int64
	}
	for seed := int64(0); seed < 50; seed++ {
		src, mem := bench.DiffProgram(seed, seed%2 == 1)
		corpus = append(corpus, struct {
			label string
			src   string
			mem   map[string]int64
		}{fmt.Sprintf("prog%d", seed), src, mem})
	}
	for seed := int64(1); seed <= 6; seed++ {
		src := bench.MultiBlockSource(seed, 9, 6)
		corpus = append(corpus, struct {
			label string
			src   string
			mem   map[string]int64
		}{fmt.Sprintf("multi%d", seed), src, map[string]int64{"a": 11, "b": 7, "c": 5, "d": 3}})
	}
	return corpus
}

// TestZooDifferentialMatrix compiles the full corpus on every zoo
// machine. Every compile runs the static verifier (diffOne sets
// Options.Verify) and the simulated memory image must match the
// reference interpreter cell for cell. In -short mode a deterministic
// slice of the matrix runs; the full product space is the default gate.
func TestZooDifferentialMatrix(t *testing.T) {
	entries := zooEntries(t)
	corpus := zooCorpus()
	step := 1
	if testing.Short() {
		step = 7
	}
	for mi, e := range entries {
		e := e
		t.Run(fmt.Sprintf("m%02d_%s", e.Index, e.Class), func(t *testing.T) {
			for ci := mi % step; ci < len(corpus); ci += step {
				c := corpus[ci]
				diffOne(t, c.src, e.M, c.mem, DefaultOptions(), fmt.Sprintf("zoo%d/%s/%s", e.Index, e.Class, c.label))
				if t.Failed() {
					t.Fatalf("failing machine (seed %d, index %d, attempt %d):\n%s", e.Seed, e.Index, e.Attempt, e.Text)
				}
			}
		})
	}
}

// TestZooParallelByteIdentical re-runs a deterministic slice of the
// matrix at Parallelism 8 and requires byte-identical assembly to the
// serial compile — the parallel pipeline's determinism contract must
// hold on every machine shape, not just the hand-written targets.
func TestZooParallelByteIdentical(t *testing.T) {
	entries := zooEntries(t)
	corpus := zooCorpus()
	for mi, e := range entries {
		// Each machine checks two programs, staggered so the corpus is
		// covered across machines.
		for k := 0; k < 2; k++ {
			c := corpus[(mi*2+k*17)%len(corpus)]
			serial := DefaultOptions()
			serial.Verify = true
			serial.Parallelism = 1
			res1, err := CompileSource(c.src, e.M, 1, serial)
			if err != nil {
				t.Fatalf("zoo%d/%s/%s: serial compile: %v\n%s", e.Index, e.Class, c.label, err, e.Text)
			}
			par := serial
			par.Parallelism = 8
			res8, err := CompileSource(c.src, e.M, 1, par)
			if err != nil {
				t.Fatalf("zoo%d/%s/%s: parallel compile: %v", e.Index, e.Class, c.label, err)
			}
			if res1.Program.String() != res8.Program.String() {
				t.Errorf("zoo%d/%s/%s: Parallelism 1 vs 8 output differs:\n%s\nvs\n%s",
					e.Index, e.Class, c.label, res1.Program, res8.Program)
			}
		}
	}
}

// TestZooSmoke is the CI zoosmoke entry point: a small deterministic
// slice of the differential matrix (first machine of every class, a
// handful of programs each) that finishes fast even under -race.
func TestZooSmoke(t *testing.T) {
	entries := zooEntries(t)
	corpus := zooCorpus()
	for mi := 0; mi < len(zoo.Classes()) && mi < len(entries); mi++ {
		e := entries[mi]
		for k := 0; k < 3; k++ {
			c := corpus[(mi*11+k*19)%len(corpus)]
			diffOne(t, c.src, e.M, c.mem, DefaultOptions(), fmt.Sprintf("smoke/zoo%d/%s/%s", e.Index, e.Class, c.label))
		}
	}
}

// TestZooLintRulesClassify pins the contract between the zoo's
// regenerate-on-reject classifier and the linter: every rule the lint
// tests enumerate is a rule zoo.RejectRules can surface, and the
// canonical registry verify.LintRules is exactly the set of rules the
// linter can emit (the lint table test in internal/verify checks the
// other direction, per-class).
func TestZooLintRulesClassify(t *testing.T) {
	m := isdl.NewMachine("bad")
	m.AddUnit("U", 0)
	rules := zoo.RejectRules(verify.LintMachine(m))
	known := map[string]bool{}
	for _, r := range verify.LintRules() {
		known[r] = true
	}
	for _, r := range rules {
		if !known[r] {
			t.Errorf("RejectRules surfaced %q, which is not in verify.LintRules", r)
		}
	}
}
