package cover

import (
	"fmt"
	"testing"

	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sndag"
)

// TestGraphCloneSchedulesLikeFreshBuild: coverAssignment list-schedules
// a clone of the graph it hands the clique covering. The clone must be
// independent of the original — covering the original first, spills
// included, leaves it untouched — and schedule exactly like a graph
// built afresh, as ListSchedule does.
func TestGraphCloneSchedulesLikeFreshBuild(t *testing.T) {
	blocks := []*ir.Block{firBlock(4), firBlock(6), wideBlock(4), wideBlock(6)}
	spilled := 0
	for _, regs := range []int{2, 4} {
		m := isdl.ExampleArch(regs)
		for _, blk := range blocks {
			d, err := sndag.Build(blk, m)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			for k, a := range exploreAssignments(d, opts) {
				label := fmt.Sprintf("%s regs %d assignment %d", blk.Name, regs, k)
				g, pm, err := cliqueGraph(d, a, opts)
				if err != nil {
					continue
				}
				lg := g.clone()
				if sol, err := cliqueCover(d, a, g, pm, opts); err == nil && sol.SpillCount > 0 {
					spilled++
				}
				got, gotErr := listSchedule(d, a, lg, opts)
				want, wantErr := ListSchedule(d, a, opts)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s: clone scheduled with error %v, fresh build with %v", label, gotErr, wantErr)
				}
				if gotErr == nil && got.String() != want.String() {
					t.Fatalf("%s: clone scheduled\n%s\nfresh build scheduled\n%s", label, got, want)
				}
			}
		}
	}
	if spilled == 0 {
		t.Fatal("no clique covering spilled; the clone's independence went untested")
	}
}
