package bench

import (
	"strings"
	"testing"

	"aviv/internal/ir"
)

func TestWorkloadNodeCounts(t *testing.T) {
	// The paper's Table I "Original DAG #Nodes" column: 8, 13, 11, 15, 16.
	want := []int{8, 13, 11, 15, 16}
	for i, w := range PaperWorkloads() {
		if got := len(w.Block.Nodes); got != want[i] {
			t.Errorf("%s has %d nodes, want %d (paper Table I)", w.Name, got, want[i])
		}
		if err := w.Block.Verify(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestWorkloadsEvaluate(t *testing.T) {
	for _, w := range PaperWorkloads() {
		mem := map[string]int64{}
		for k, v := range w.Mem {
			mem[k] = v
		}
		if _, err := ir.EvalBlock(w.Block, mem); err != nil {
			t.Errorf("%s does not evaluate: %v", w.Name, err)
		}
	}
}

func TestGenerators(t *testing.T) {
	f := FIR(8)
	if err := f.Block.Verify(); err != nil {
		t.Fatal(err)
	}
	// 8 taps: 16 loads, 8 muls, 7 adds, 1 store.
	if got := len(f.Block.Nodes); got != 32 {
		t.Errorf("fir8 has %d nodes, want 32", got)
	}
	mem := map[string]int64{}
	for k, v := range f.Mem {
		mem[k] = v
	}
	if _, err := ir.EvalBlock(f.Block, mem); err != nil {
		t.Fatal(err)
	}
	// y = sum (i+1)(2i+1) for i in 0..7 = 1+6+15+28+45+66+91+120 = 372.
	if mem["y"] != 372 {
		t.Errorf("fir8 y = %d, want 372", mem["y"])
	}

	v := VectorAdd(4)
	if err := v.Block.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := len(v.Block.Nodes); got != 16 {
		t.Errorf("vadd4 has %d nodes, want 16", got)
	}

	c := Chain(6)
	if err := c.Block.Verify(); err != nil {
		t.Fatal(err)
	}
	mem = map[string]int64{"x": 7}
	if _, err := ir.EvalBlock(c.Block, mem); err != nil {
		t.Fatal(err)
	}
	// ((((7+1)*2)+3)*2)+5 then *2: chain6 = ((((((7+1)*2)+3)*2)+5)*2) = 86.
	if mem["y"] != 86 {
		t.Errorf("chain6 y = %d, want 86", mem["y"])
	}

	r1 := Random(42, 10)
	r2 := Random(42, 10)
	if r1.Block.String() != r2.Block.String() {
		t.Error("Random is not deterministic")
	}
	if err := r1.Block.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestTableIHeuristicOnly(t *testing.T) {
	rows, err := TableI(TableConfig{Peephole: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	for i, r := range rows {
		// Shape checks: the Split-Node DAG grows several-fold, results
		// never exceed the paper's heuristic numbers by much (our Ex2-5
		// share only node counts with the paper's unpublished DAGs, so
		// being better is expected), and only the 2-register rows spill.
		if r.SNNodes < 2*r.OrigNodes {
			t.Errorf("%s: SN-DAG %d not ≫ original %d", r.Name, r.SNNodes, r.OrigNodes)
		}
		if r.Cost > r.PaperAviv+2 {
			t.Errorf("%s: cost %d worse than paper's %d", r.Name, r.Cost, r.PaperAviv)
		}
		if r.Cost < 3 {
			t.Errorf("%s: cost %d implausibly small", r.Name, r.Cost)
		}
		if i < 5 && r.Spills != 0 {
			t.Errorf("%s: unexpected spills %d with 4 registers", r.Name, r.Spills)
		}
	}
	// Ex1 IS the paper's Fig. 2 block: exact match required.
	if rows[0].Cost != 7 {
		t.Errorf("Ex1 cost = %d, want exactly 7", rows[0].Cost)
	}
	// The 2-register reruns cost extra instructions vs their 4-register
	// versions (Table I's Ex6 > Ex4, Ex7 > Ex5 shape).
	if rows[5].Cost < rows[3].Cost {
		t.Errorf("Ex6 (2 regs) cost %d < Ex4 (4 regs) cost %d", rows[5].Cost, rows[3].Cost)
	}
	if rows[6].Cost < rows[4].Cost {
		t.Errorf("Ex7 (2 regs) cost %d < Ex5 (4 regs) cost %d", rows[6].Cost, rows[4].Cost)
	}
	out := Format("Table I", rows)
	for _, want := range []string{"Ex1", "Ex7", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q", want)
		}
	}
}

func TestTableIIHeuristicOnly(t *testing.T) {
	rows, err := TableII(TableConfig{Peephole: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	rowsI, err := TableI(TableConfig{Peephole: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		// Architecture II has fewer alternatives: smaller SN-DAGs
		// (paper: Ex1 30 -> 17), and code no better than on the 3-unit
		// machine ... except where the narrower machine loses nothing,
		// the paper's own observation.
		if r.SNNodes >= rowsI[i].SNNodes {
			t.Errorf("%s: ArchII SN-DAG %d not smaller than ExampleArch %d",
				r.Name, r.SNNodes, rowsI[i].SNNodes)
		}
		// Heuristic covering may luck out on the narrower machine (fewer
		// alternatives to mispick), but never by a wide margin.
		if r.Cost+2 < rowsI[i].Cost {
			t.Errorf("%s: ArchII cost %d clearly better than 3-unit cost %d",
				r.Name, r.Cost, rowsI[i].Cost)
		}
	}
}

// TestPaperTableRows pins every heuristics-on, non-timing column of
// Tables I and II (DAG#, SN-DAG#, Regs, Spills, ours) as avivbench
// prints them, so a change to the covering cannot move a row silently.
func TestPaperTableRows(t *testing.T) {
	type pin struct {
		name                             string
		dag, snDAG, regs, spills, instrs int
	}
	for _, tc := range []struct {
		table string
		run   func(TableConfig) ([]Row, error)
		want  []pin
	}{
		{"Table I", TableI, []pin{
			{"Ex1", 8, 34, 4, 0, 7},
			{"Ex2", 13, 59, 4, 0, 10},
			{"Ex3", 11, 52, 4, 0, 8},
			{"Ex4", 15, 65, 4, 0, 11},
			{"Ex5", 16, 92, 4, 0, 11},
			{"Ex6", 15, 65, 2, 0, 13},
			{"Ex7", 16, 92, 2, 0, 12},
		}},
		{"Table II", TableII, []pin{
			{"Ex1", 8, 20, 4, 0, 7},
			{"Ex2", 13, 34, 4, 0, 9},
			{"Ex3", 11, 31, 4, 0, 8},
			{"Ex4", 15, 36, 4, 0, 10},
			{"Ex5", 16, 52, 4, 0, 10},
		}},
	} {
		rows, err := tc.run(TableConfig{Peephole: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.table, err)
		}
		if len(rows) != len(tc.want) {
			t.Fatalf("%s: got %d rows, want %d", tc.table, len(rows), len(tc.want))
		}
		for i, r := range rows {
			got := pin{r.Name, r.OrigNodes, r.SNNodes, r.RegsPerFile, r.Spills, r.Cost}
			if got != tc.want[i] {
				t.Errorf("%s row %d = %+v, want %+v", tc.table, i, got, tc.want[i])
			}
		}
	}
}

func TestTableIExhaustiveSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive covering is slow")
	}
	// Exhaustive mode on the two smallest blocks only.
	w := Ex1()
	cfg := TableConfig{Exhaustive: true, MaxAssignments: 50_000, Peephole: true}
	rows, err := TableI(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = w
	for _, r := range rows[:2] {
		if r.ExhCost < 0 {
			t.Errorf("%s: exhaustive run skipped", r.Name)
		}
		if r.ExhCost > r.Cost {
			t.Errorf("%s: exhaustive %d worse than heuristic %d", r.Name, r.ExhCost, r.Cost)
		}
	}
}

func TestDSPSuiteEvaluates(t *testing.T) {
	for _, w := range DSPSuite() {
		if err := w.Block.Verify(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		mem := map[string]int64{}
		for k, v := range w.Mem {
			mem[k] = v
		}
		if _, err := ir.EvalBlock(w.Block, mem); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
	}
	// Spot-check butterfly math: tr = 3*2-4*1 = 2, ti = 3*1+4*2 = 11.
	w := Butterfly()
	mem := map[string]int64{}
	for k, v := range w.Mem {
		mem[k] = v
	}
	if _, err := ir.EvalBlock(w.Block, mem); err != nil {
		t.Fatal(err)
	}
	if mem["ar"] != 12 || mem["br"] != 8 || mem["ai"] != 31 || mem["bi"] != 9 {
		t.Errorf("butterfly: %v", mem)
	}
	// MatMul2: c00 = 1*1+2*3 = 7.
	w2 := MatMul2()
	mem2 := map[string]int64{}
	for k, v := range w2.Mem {
		mem2[k] = v
	}
	if _, err := ir.EvalBlock(w2.Block, mem2); err != nil {
		t.Fatal(err)
	}
	if mem2["c00"] != 1*1+2*3 {
		t.Errorf("matmul2 c00 = %d, want 7", mem2["c00"])
	}
}
