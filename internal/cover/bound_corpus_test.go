package cover_test

import (
	"testing"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sndag"
	"aviv/internal/zoo"
)

// TestLowerBoundAdmissibleCorpus checks the branch-and-bound of
// CoverDAG over the blocks of the difftest corpus, on the corpus's own
// machines (the full example VLIW, and the single-issue DSP for the
// bitwise programs) and on one zoo machine per class, under the default
// preset, and on the corpus machines under the exhaustive preset for a
// slice of the corpus. Against CoverEveryAssignment, which covers every
// assignment without pruning, it checks that
//
//   - the lower bound never exceeds the cost of the assignment's
//     covering (admissibility);
//   - CoverDAG picks the same winner;
//   - every assignment whose graph builds is either covered or pruned.
func TestLowerBoundAdmissibleCorpus(t *testing.T) {
	entries, err := zoo.Generate(1, len(zoo.Classes()))
	if err != nil {
		t.Fatal(err)
	}
	vliw, dsp := isdl.ExampleArchFull(4), isdl.SingleIssueDSP(4)
	// home[i] is the machine the corpus compiles blocks[i] on.
	var blocks []*ir.Block
	var home []*isdl.Machine
	exhaustive := 0 // blocks[:exhaustive] also run exhaustive
	for seed := int64(0); seed < 50; seed++ {
		bitwise := seed%2 == 1
		src, _ := bench.DiffProgram(seed, bitwise)
		f, err := aviv.ParseAndLower(src, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, b := range f.Blocks {
			blocks = append(blocks, b)
			if bitwise {
				home = append(home, dsp)
			} else {
				home = append(home, vliw)
			}
		}
		if seed < 10 {
			exhaustive = len(blocks)
		}
	}
	type run struct {
		name   string
		m      *isdl.Machine // nil: each block's home machine
		opts   cover.Options
		blocks []*ir.Block
	}
	runs := []run{{"default on corpus machines", nil, cover.DefaultOptions(), blocks}}
	for _, e := range entries {
		runs = append(runs, run{"default on " + e.Class + " " + e.M.Name, e.M, cover.DefaultOptions(), blocks})
	}
	runs = append(runs, run{"exhaustive on corpus machines", nil, cover.ExhaustiveOptions(), blocks[:exhaustive]})

	for _, r := range runs {
		var assignments, tight, pruned int
		for i, blk := range r.blocks {
			m := r.m
			if m == nil {
				m = home[i]
			}
			d, err := sndag.Build(blk, m)
			if err != nil {
				t.Fatalf("%s: block %s: %v", r.name, blk.Name, err)
			}
			covers, want, err := cover.CoverEveryAssignment(d, r.opts)
			if err != nil {
				t.Fatalf("%s: block %s: reference: %v", r.name, blk.Name, err)
			}
			covered := 0
			for k, c := range covers {
				if !c.Covered {
					continue
				}
				covered++
				if c.Bound > c.Cost {
					t.Fatalf("%s: block %s: assignment %d has lower bound %d above its covering cost %d",
						r.name, blk.Name, k, c.Bound, c.Cost)
				}
				if c.Bound == c.Cost {
					tight++
				}
			}
			assignments += covered

			res, err := cover.CoverDAG(d, r.opts)
			if err != nil {
				t.Fatalf("%s: block %s: %v", r.name, blk.Name, err)
			}
			if res.Best.String() != want.String() || res.Best.SpillCount != want.SpillCount {
				t.Fatalf("%s: block %s: CoverDAG chose\n%sreference chose\n%s", r.name, blk.Name, res.Best, want)
			}
			pruned += res.PrunedAssignments
			// A covering that fails is neither counted nor pruned, unless
			// the bound skips it first; the serial fallback counts as one.
			done := res.AssignmentsExplored + res.PrunedAssignments
			switch {
			case covered == 0:
				if res.AssignmentsExplored != 1 || res.PrunedAssignments != 0 {
					t.Fatalf("%s: block %s: serial fallback after %d covered, %d pruned",
						r.name, blk.Name, res.AssignmentsExplored, res.PrunedAssignments)
				}
			case done < covered || done > len(covers) || (covered == len(covers) && done != covered):
				t.Fatalf("%s: block %s: %d covered and %d pruned of %d assignments, %d of which cover",
					r.name, blk.Name, res.AssignmentsExplored, res.PrunedAssignments, len(covers), covered)
			}
		}
		if assignments == 0 {
			t.Fatalf("%s: no assignment covered", r.name)
		}
		t.Logf("%s: %d assignments covered, bound tight on %d; CoverDAG pruned %d", r.name, assignments, tight, pruned)
	}
}
