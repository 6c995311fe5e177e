package peephole_test

import (
	"fmt"
	"testing"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/isdl"
	"aviv/internal/peephole"
	"aviv/internal/zoo"
)

// TestCompactMatchesFullVerify pins the screened trial move to the
// reference it replaces: a compaction that runs the whole-block
// Solution.Verify on every trial. Over the differential corpus on the
// example machines (arithmetic programs on the example VLIW, bitwise
// ones on the single-issue DSP) and on one zoo machine per class, it
// checks that
//
//   - every trial cover.CanMove rejects also fails Verify, and
//   - Optimize's output equals the reference's, instruction order
//     included.
func TestCompactMatchesFullVerify(t *testing.T) {
	type target struct {
		name string
		m    *isdl.Machine
	}
	vliw := target{"example-vliw", isdl.ExampleArchFull(4)}
	dsp := target{"single-issue-dsp", isdl.SingleIssueDSP(4)}
	entries, err := zoo.Generate(1, len(zoo.Classes()))
	if err != nil {
		t.Fatal(err)
	}
	var zooTargets []target
	for _, e := range entries {
		zooTargets = append(zooTargets, target{fmt.Sprintf("zoo%d-%s", e.Index, e.Class), e.M})
	}
	var st trialStats
	for seed := int64(0); seed < 50; seed++ {
		bitwise := seed%2 == 1
		example := vliw
		if bitwise {
			example = dsp
		}
		for _, tg := range append([]target{example}, zooTargets...) {
			src, _ := bench.DiffProgram(seed, bitwise)
			res, err := aviv.CompileSource(src, tg.m, 1, aviv.DefaultOptions())
			if err != nil {
				t.Fatalf("%s/seed%d: compile: %v\n%s", tg.name, seed, err, src)
			}
			for _, br := range res.Blocks {
				sol := br.Covering.Best
				want := refOptimize(t, sol, &st)
				if got := peephole.Optimize(sol); got.String() != want.String() {
					t.Errorf("%s/seed%d/%s: Optimize differs from the full-Verify reference\ngot:\n%s\nwant:\n%s",
						tg.name, seed, br.Block.Name, got, want)
				}
			}
		}
	}
	t.Logf("%d trial moves, %d rejected by CanMove, %d accepted", st.trials, st.localRejects, st.accepted)
	if st.localRejects == 0 || st.accepted == 0 {
		t.Fatalf("corpus exercised no local reject or no accepted move (%+v); the check is vacuous", st)
	}
}

type trialStats struct{ trials, localRejects, accepted int }

// refOptimize is peephole.Optimize with refCompact in place of the
// screened compaction.
func refOptimize(t *testing.T, sol *cover.Solution, st *trialStats) *cover.Solution {
	best := sol
	if improved, ok := peephole.RemoveRedundantSpills(best); ok {
		best = improved
	}
	if improved, ok := refCompact(t, best, st); ok {
		best = improved
	}
	return best
}

// refCompact is the compaction that verifies the whole block on every
// trial move. Before each trial it also asks cover.CanMove, and reports
// a local reject that Verify would accept.
func refCompact(t *testing.T, sol *cover.Solution, st *trialStats) (*cover.Solution, bool) {
	c := sol.Clone()
	changed := false
	for {
		moved := false
		pos := refPositions(c)
		for i := 1; i < len(c.Instrs); i++ {
			for _, n := range append([]*cover.SNode(nil), c.Instrs[i]...) {
				earliest := 0
				for _, p := range n.Preds {
					earliest = max(earliest, pos[p]+1)
				}
				for _, p := range n.OrdPreds {
					earliest = max(earliest, pos[p]+1)
				}
				for j := earliest; j < i; j++ {
					if refTryMove(t, c, n, i, j, pos, st) {
						pos = refPositions(c)
						moved = true
						changed = true
						break
					}
				}
			}
		}
		if !moved {
			break
		}
	}
	var kept [][]*cover.SNode
	for _, instr := range c.Instrs {
		if len(instr) > 0 {
			kept = append(kept, instr)
		}
	}
	c.Instrs = kept
	if !changed || c.Cost() >= sol.Cost() {
		return nil, false
	}
	if err := c.Verify(); err != nil {
		return nil, false
	}
	return c, true
}

func refTryMove(t *testing.T, c *cover.Solution, n *cover.SNode, i, j int, pos map[*cover.SNode]int, st *trialStats) bool {
	local := c.CanMove(n, j, pos)
	c.Instrs[i] = without(c.Instrs[i], n)
	c.Instrs[j] = append(c.Instrs[j], n)
	err := c.Verify()
	st.trials++
	if !local {
		st.localRejects++
		if err == nil {
			t.Errorf("CanMove rejects moving %s from instruction %d to %d, but the moved solution verifies", n, i, j)
		}
	}
	if err != nil {
		c.Instrs[j] = without(c.Instrs[j], n)
		c.Instrs[i] = append(c.Instrs[i], n)
		return false
	}
	st.accepted++
	return true
}

func refPositions(c *cover.Solution) map[*cover.SNode]int {
	pos := make(map[*cover.SNode]int)
	for i, instr := range c.Instrs {
		for _, n := range instr {
			pos[n] = i
		}
	}
	return pos
}

func without(list []*cover.SNode, x *cover.SNode) []*cover.SNode {
	var out []*cover.SNode
	for _, n := range list {
		if n != x {
			out = append(out, n)
		}
	}
	return out
}
