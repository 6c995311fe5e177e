package cover_test

import (
	"testing"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/zoo"
)

// TestLookaheadMatchesReferenceCorpus checks every lookahead estimate
// the covering makes against the rescanning reference, over every
// block of the difftest corpus, under both presets, on the corpus's own
// machines (the full example VLIW, and the single-issue DSP for the
// bitwise programs) and on two zoo machines: a wide VLIW whose bus
// carries more than one transfer per instruction, and a tiny-register
// machine whose schedules spill (so the post-spill recount is
// exercised).
func TestLookaheadMatchesReferenceCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	entries, err := zoo.Generate(1, 27)
	if err != nil {
		t.Fatal(err)
	}
	var wide, tiny *isdl.Machine
	for _, e := range entries {
		switch {
		case e.Class == zoo.ClassWideVLIW && wide == nil && maxBusWidth(e.M) > 1:
			wide = e.M
		case e.Class == zoo.ClassTinyRegs && tiny == nil:
			tiny = e.M
		}
	}
	if wide == nil || tiny == nil {
		t.Fatal("zoo has no wide-bus VLIW or no tiny-register machine")
	}
	// home[i] is the machine the corpus compiles blocks[i] on.
	var blocks []*ir.Block
	var home []*isdl.Machine
	vliw, dsp := isdl.ExampleArchFull(4), isdl.SingleIssueDSP(4)
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
	}
	for _, preset := range []struct {
		name string
		opts cover.Options
	}{
		{"default", cover.DefaultOptions()},
		{"exhaustive", cover.ExhaustiveOptions()},
	} {
		for _, mc := range []struct {
			name      string
			m         *isdl.Machine
			wantSpill bool
		}{
			{"corpus machines", nil, false},
			{"wide-bus " + wide.Name, wide, false},
			{"tiny-regs " + tiny.Name, tiny, true},
		} {
			stop := cover.WatchLookahead()
			for i, blk := range blocks {
				m := mc.m
				if m == nil {
					m = home[i]
				}
				if _, err := cover.CoverBlock(blk, m, preset.opts); err != nil {
					stop()
					t.Fatalf("%s on %s: block %s: %v", preset.name, mc.name, blk.Name, err)
				}
			}
			st := stop()
			if st.Err != nil {
				t.Fatalf("%s on %s: %v", preset.name, mc.name, st.Err)
			}
			if st.Calls == 0 || (mc.wantSpill && st.AfterSpill == 0) {
				t.Fatalf("%s on %s: %d estimates checked, %d after a spill", preset.name, mc.name, st.Calls, st.AfterSpill)
			}
			t.Logf("%s on %s: %d estimates checked, %d after a spill", preset.name, mc.name, st.Calls, st.AfterSpill)
		}
	}
}

func maxBusWidth(m *isdl.Machine) int {
	w := 0
	for _, b := range m.Buses {
		w = max(w, b.Width)
	}
	return w
}
