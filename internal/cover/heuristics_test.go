package cover_test

import (
	"testing"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/isdl"
	"aviv/internal/zoo"
)

// twoBusISDL is ExampleArch(4) with a second width-1 crossbar bus: every
// transfer has two one-hop paths, one per bus, so the path choice of
// Sec. IV-B decides which transfers can share an instruction.
const twoBusISDL = `
machine TwoBusVLIW
unit U1 { regs 4 ops ADD SUB COMPL }
unit U2 { regs 4 ops ADD SUB MUL }
unit U3 { regs 4 ops ADD MUL }
memory DM
bus DA width 1
bus DB width 1
connect all via DA
connect all via DB
`

// TestTransferPathSpreadsBusLoad pins the bus-load path choice of
// Sec. IV-B on a two-bus machine. Taking each transfer's first path
// puts every transfer on one bus and costs Ex1-Ex5 7/10/8/11/11.
func TestTransferPathSpreadsBusLoad(t *testing.T) {
	m, err := isdl.Parse(twoBusISDL)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{5, 7, 6, 8, 8}
	for i, w := range bench.PaperWorkloads() {
		res, err := cover.CoverBlock(w.Block, m, cover.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if got := res.Best.Cost(); got != want[i] {
			t.Errorf("%s on %s: cost %d, want %d", w.Name, m.Name, got, want[i])
		}
	}
}

// TestLookaheadChangesOutput pins the Sec. IV-D lookahead on a program
// where its tie-break pays: difftest seed 20 on the hub-bank machine of
// zoo slot 12 compiles to 8 instructions with it and to 9 without.
func TestLookaheadChangesOutput(t *testing.T) {
	e, err := zoo.One(1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if e.Class != zoo.ClassHubBank {
		t.Fatalf("zoo slot 12 is %s, want %s", e.Class, zoo.ClassHubBank)
	}
	src, _ := bench.DiffProgram(20, false)
	for _, c := range []struct {
		lookahead bool
		want      int
	}{{true, 8}, {false, 9}} {
		opts := aviv.DefaultOptions()
		opts.Cover.Lookahead = c.lookahead
		res, err := aviv.CompileSource(src, e.M, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.CodeSize(); got != c.want {
			t.Errorf("Lookahead=%v: %d instructions on %s, want %d", c.lookahead, got, e.M.Name, c.want)
		}
	}
}

// TestPruneAndBeamChangeOutput pins the incremental-cost pruning (Fig. 6)
// and the beam width (Sec. IV-A) on the paper's blocks on ExampleArch(4): Ex2
// costs 10 with pruning and 9 without, and Ex4 costs 11 at the default
// beam of 16 and 12 at a beam of 1.
func TestPruneAndBeamChangeOutput(t *testing.T) {
	m := isdl.ExampleArch(4)
	for _, c := range []struct {
		name string
		w    bench.Workload
		mut  func(*cover.Options)
		want int
	}{
		{"prune", bench.Ex2(), func(o *cover.Options) { o.PruneIncremental = true }, 10},
		{"no-prune", bench.Ex2(), func(o *cover.Options) { o.PruneIncremental = false }, 9},
		{"beam=16", bench.Ex4(), func(o *cover.Options) { o.BeamWidth = 16 }, 11},
		{"beam=1", bench.Ex4(), func(o *cover.Options) { o.BeamWidth = 1 }, 12},
	} {
		opts := cover.DefaultOptions()
		c.mut(&opts)
		res, err := cover.CoverBlock(c.w.Block, m, opts)
		if err != nil {
			t.Fatalf("%s %s: %v", c.w.Name, c.name, err)
		}
		if got := res.Best.Cost(); got != c.want {
			t.Errorf("%s with %s: cost %d on %s, want %d", c.w.Name, c.name, got, m.Name, c.want)
		}
	}
}
