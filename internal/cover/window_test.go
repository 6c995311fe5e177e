package cover

import (
	"strings"
	"testing"

	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sndag"
)

// referenceCoverAssignment is coverAssignment under heuristics-off
// options without the windowed skip: both clique coverings and the list
// schedule always run, folded by betterSolution.
func referenceCoverAssignment(d *sndag.DAG, a *Assignment, opts Options) (*Solution, error) {
	g, pm, err := cliqueGraph(d, a, opts)
	if err != nil {
		return nil, err
	}
	best, firstErr := cliqueCover(d, a, g, pm, opts)
	windowed := opts
	windowed.LevelWindow = DefaultOptions().LevelWindow
	if wg, wpm, err := cliqueGraph(d, a, windowed); err == nil {
		if sol, err := cliqueCover(d, a, wg, wpm, windowed); err == nil {
			best = betterSolution(best, sol)
		}
	}
	if ls, err := ListSchedule(d, a, opts); err == nil {
		best = betterSolution(best, ls)
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// TestWindowedSkipMatchesReference checks that skipping the windowed
// re-cover never changes what coverAssignment returns, over every
// heuristics-off assignment of three blocks, and that the skip fires
// exactly under its rule. Trace line counts tell skipped from run. The
// Fig. 2 block on the example machine exercises the skip; the Fig. 9
// FIR on the single-issue DSP spills, so there the windowed covering
// must run even though its matrix is unchanged; on a 3-tap FIR the
// window changes the matrix of some assignments.
func TestWindowedSkipMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block *ir.Block
		mach  *isdl.Machine
		// want names the case some assignment must show: "skip", or the
		// reason a skip was declined, "spill" or "matrix".
		want string
	}{
		{"fig2", fig2Block(), isdl.ExampleArch(4), "skip"},
		{"fig9-fir4", firBlock(4), isdl.SingleIssueDSP(2), "spill"},
		{"fir3", firBlock(3), isdl.ExampleArch(4), "matrix"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := sndag.Build(tc.block, tc.mach)
			if err != nil {
				t.Fatal(err)
			}
			opts := ExhaustiveOptions()
			windowed := opts
			windowed.LevelWindow = DefaultOptions().LevelWindow
			assigns := exploreAssignments(d, opts)
			if len(assigns) == 0 {
				t.Fatal("no assignments")
			}
			seen := map[string]int{}
			for i, a := range assigns {
				want, wantErr := referenceCoverAssignment(d, a, opts)
				traced := opts
				traced.Trace = &Trace{}
				got, gotErr := coverAssignment(d, a, nil, traced)
				if (gotErr == nil) != (wantErr == nil) ||
					(gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("assignment %d: error %v, reference %v", i, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if got.String() != want.String() || got.SpillCount != want.SpillCount {
					t.Fatalf("assignment %d differs from the reference\n--- got ---\n%s--- want ---\n%s", i, got, want)
				}

				g, pm, err := cliqueGraph(d, a, opts)
				if err != nil {
					t.Fatal(err)
				}
				first, err := cliqueCover(d, a, g, pm, opts)
				_, wpm, _ := cliqueGraph(d, a, windowed)
				var outcome string
				switch {
				case err != nil:
					outcome = "failed"
				case pm == nil || !pm.Equal(wpm):
					outcome = "matrix"
				case first.SpillCount > 0:
					outcome = "spill"
				default:
					outcome = "skip"
				}
				seen[outcome]++

				text := traced.Trace.String()
				coverings := strings.Count(text, "maximal groupings")
				skips := strings.Count(text, "windowed covering skipped")
				wantSkips := 0
				if outcome == "skip" {
					wantSkips = 1
				}
				if skips != wantSkips || coverings != 2-wantSkips {
					t.Fatalf("assignment %d (%s): %d clique coverings and %d skips", i, outcome, coverings, skips)
				}
			}
			t.Logf("%d assignments: %v", len(assigns), seen)
			if seen[tc.want] == 0 {
				t.Errorf("no assignment shows %q", tc.want)
			}
		})
	}
}
