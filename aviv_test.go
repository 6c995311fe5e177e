package aviv

import (
	"strings"
	"testing"
	"testing/quick"

	"aviv/internal/asm"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/opt"
	"aviv/internal/sim"
)

// checkCompiled compiles f for m, round-trips the binary object, runs the
// simulator, and compares the final memory against the reference IR
// interpreter — the full Fig. 1 validation loop.
func checkCompiled(t *testing.T, f *ir.Func, m *isdl.Machine, mem map[string]int64, opts Options) *CompileResult {
	t.Helper()
	res, err := Compile(f, m, opts)
	if err != nil {
		t.Fatalf("Compile(%s): %v", f.Name, err)
	}
	for _, br := range res.Blocks {
		if err := br.Solution.Verify(); err != nil {
			t.Fatalf("block %s solution invalid: %v", br.Block.Name, err)
		}
		if err := br.Allocation.Verify(); err != nil {
			t.Fatalf("block %s allocation invalid: %v", br.Block.Name, err)
		}
	}

	// Reference semantics.
	want := make(map[string]int64, len(mem))
	for k, v := range mem {
		want[k] = v
	}
	if err := ir.EvalFunc(f, want, 0); err != nil {
		t.Fatalf("reference eval: %v", err)
	}

	// Assemble to binary and load back (assembler + loader round trip).
	obj, err := asm.Encode(res.Program)
	if err != nil {
		t.Fatalf("object encode: %v", err)
	}
	loaded, err := asm.Decode(obj, m)
	if err != nil {
		t.Fatalf("object round trip: %v", err)
	}

	got, _, err := sim.RunProgram(loaded, mem, 0)
	if err != nil {
		t.Fatalf("simulation: %v\n%s", err, res.Program)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("mem[%s] = %d after simulation, want %d\nprogram:\n%s", k, got[k], v, res.Program)
		}
	}
	// No stray writes to program variables (spill slots are fine).
	for k, v := range got {
		if strings.HasPrefix(k, "$sp") {
			continue
		}
		if wv, ok := want[k]; !ok || wv != v {
			if !ok {
				t.Errorf("unexpected write to mem[%s] = %d", k, v)
			}
		}
	}
	return res
}

func singleBlockFunc(b *ir.Block) *ir.Func {
	return &ir.Func{Name: b.Name, Blocks: []*ir.Block{b}}
}

func TestCompileFig2EndToEnd(t *testing.T) {
	bb := ir.NewBuilder("fig2")
	sum := bb.Add(bb.Load("a"), bb.Load("b"))
	prod := bb.Mul(bb.Load("c"), bb.Load("d"))
	bb.Store("out", bb.Sub(sum, prod))
	bb.Return()
	f := singleBlockFunc(bb.Finish())

	mem := map[string]int64{"a": 10, "b": 32, "c": 6, "d": 7}
	res := checkCompiled(t, f, isdl.ExampleArch(4), mem, DefaultOptions())
	if res.Blocks[0].Solution.Cost() != 7 {
		t.Errorf("body size = %d, want 7 (paper Table I Ex1)", res.Blocks[0].Solution.Cost())
	}
	// out = (10+32) - (6*7) = 0.
}

func TestCompileWithSpillsEndToEnd(t *testing.T) {
	bb := ir.NewBuilder("press")
	a := bb.Load("a")
	b := bb.Load("b")
	c := bb.Load("c")
	d := bb.Load("d")
	s1 := bb.Add(a, b)
	s2 := bb.Sub(c, d)
	s3 := bb.Mul(s1, s2)
	bb.Store("o", bb.Add(s3, a))
	bb.Return()
	f := singleBlockFunc(bb.Finish())

	mem := map[string]int64{"a": 3, "b": 4, "c": 9, "d": 2}
	// o = (3+4)*(9-2) + 3 = 52. Run on both register budgets.
	checkCompiled(t, f, isdl.ExampleArch(4), mem, DefaultOptions())
	checkCompiled(t, f, isdl.ExampleArch(2), mem, DefaultOptions())
}

func TestCompileLoopEndToEnd(t *testing.T) {
	// sum = 0; i = 0; while (i < n) { sum += i*i; i++ }
	entry := ir.NewBuilder("entry")
	entry.Store("sum", entry.Const(0))
	entry.Store("i", entry.Const(0))
	entry.Jump("head")

	head := ir.NewBuilder("head")
	head.Branch(head.Op(ir.OpCmpLT, head.Load("i"), head.Load("n")), "body", "exit")

	body := ir.NewBuilder("body")
	i := body.Load("i")
	body.Store("sum", body.Add(body.Load("sum"), body.Mul(i, i)))
	body.Store("i", body.Add(i, body.Const(1)))
	body.Jump("head")

	exit := ir.NewBuilder("exit")
	exit.Return()

	f := &ir.Func{Name: "sumsq", Blocks: []*ir.Block{
		entry.Finish(), head.Finish(), body.Finish(), exit.Finish(),
	}}
	// CmpLT only exists on the wide machine; extend the example arch.
	m := isdl.ExampleArch(4)
	m.Unit("U1").Ops[ir.OpCmpLT] = true
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	mem := map[string]int64{"n": 6}
	// sum = 0+1+4+9+16+25 = 55.
	res := checkCompiled(t, f, m, mem, DefaultOptions())
	if res.CodeSize() == 0 {
		t.Error("empty program")
	}
}

func TestCompileBranchTakenAndNot(t *testing.T) {
	entry := ir.NewBuilder("entry")
	x := entry.Load("x")
	entry.Branch(entry.Op(ir.OpCmpGT, x, entry.Const(10)), "big", "small")

	big := ir.NewBuilder("big")
	big.Store("r", big.Const(1))
	big.Jump("exit")

	small := ir.NewBuilder("small")
	small.Store("r", small.Const(2))
	small.Jump("exit")

	exit := ir.NewBuilder("exit")
	exit.Return()

	f := &ir.Func{Name: "cmp", Blocks: []*ir.Block{
		entry.Finish(), big.Finish(), small.Finish(), exit.Finish(),
	}}
	m := isdl.ExampleArch(4)
	m.Unit("U2").Ops[ir.OpCmpGT] = true
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	checkCompiled(t, f, m, map[string]int64{"x": 20}, DefaultOptions())
	checkCompiled(t, f, m, map[string]int64{"x": 3}, DefaultOptions())
}

func TestCompileOnAllArchitectures(t *testing.T) {
	bb := ir.NewBuilder("dsp")
	x0 := bb.Load("x0")
	c0 := bb.Load("c0")
	x1 := bb.Load("x1")
	c1 := bb.Load("c1")
	acc := bb.Add(bb.Mul(x0, c0), bb.Mul(x1, c1))
	bb.Store("acc", acc)
	bb.Return()
	blk := bb.Finish()
	mem := map[string]int64{"x0": 2, "c0": 3, "x1": 4, "c1": 5}

	machines := []*isdl.Machine{
		isdl.ExampleArch(4),
		isdl.ArchitectureII(4),
		isdl.SingleIssueDSP(8),
		isdl.WideDSP(8),
	}
	var costs []int
	for _, m := range machines {
		res := checkCompiled(t, singleBlockFunc(blk), m, mem, DefaultOptions())
		costs = append(costs, res.Blocks[0].Solution.Cost())
	}
	// The single-issue machine cannot beat the 3-unit example machine.
	if costs[2] < costs[0] {
		t.Errorf("single-issue cost %d < 3-unit cost %d", costs[2], costs[0])
	}
}

func TestCompileExhaustiveMatchesOrBeatsHeuristic(t *testing.T) {
	bb := ir.NewBuilder("e")
	a := bb.Load("a")
	b := bb.Load("b")
	bb.Store("o1", bb.Sub(bb.Add(a, b), bb.Mul(a, b)))
	bb.Return()
	f := singleBlockFunc(bb.Finish())
	m := isdl.ExampleArch(4)
	mem := map[string]int64{"a": 5, "b": 3}
	h := checkCompiled(t, f, m, mem, DefaultOptions())
	e := checkCompiled(t, f, m, mem, ExhaustiveOptions())
	if e.Blocks[0].Solution.Cost() > h.Blocks[0].Solution.Cost() {
		t.Errorf("exhaustive %d > heuristic %d",
			e.Blocks[0].Solution.Cost(), h.Blocks[0].Solution.Cost())
	}
}

func TestLoadMachineAndCompile(t *testing.T) {
	m, err := LoadMachine(isdl.ExampleArchISDL)
	if err != nil {
		t.Fatal(err)
	}
	bb := ir.NewBuilder("b")
	bb.Store("o", bb.Add(bb.Load("x"), bb.Load("y")))
	bb.Return()
	checkCompiled(t, singleBlockFunc(bb.Finish()), m, map[string]int64{"x": 1, "y": 2}, DefaultOptions())
}

// Property: random expression DAGs compile and simulate to the reference
// semantics on the example architecture, with and without heuristics.
func TestQuickCompileAgreesWithReference(t *testing.T) {
	m := isdl.ExampleArch(4)
	m2 := isdl.ExampleArch(2)
	prop := func(seed int64) bool {
		blk := randomBlock(seed, 8)
		f := singleBlockFunc(blk)
		mem := map[string]int64{"a": seed % 97, "b": (seed >> 3) % 89, "c": (seed >> 7) % 83}

		for _, machine := range []*isdl.Machine{m, m2} {
			res, err := Compile(f, machine, DefaultOptions())
			if err != nil {
				return false
			}
			want := map[string]int64{}
			for k, v := range mem {
				want[k] = v
			}
			if err := ir.EvalFunc(f, want, 0); err != nil {
				return false
			}
			got, _, err := sim.RunProgram(res.Program, mem, 0)
			if err != nil {
				return false
			}
			for k, v := range want {
				if got[k] != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// randomBlock builds a deterministic pseudo-random block over ADD/SUB/MUL
// (the example machine's repertoire).
func randomBlock(seed int64, nOps int) *ir.Block {
	bb := ir.NewBuilder("rand")
	state := uint64(seed)*2654435761 + 12345
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	avail := []*ir.Node{bb.Load("a"), bb.Load("b"), bb.Load("c"), bb.Const(int64(next(50)))}
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul}
	for i := 0; i < nOps; i++ {
		op := ops[next(len(ops))]
		x := avail[next(len(avail))]
		y := avail[next(len(avail))]
		avail = append(avail, bb.Op(op, x, y))
	}
	bb.Store("out", avail[len(avail)-1])
	if next(2) == 0 && len(avail) > 5 {
		bb.Store("out2", avail[len(avail)-2])
	}
	bb.Return()
	return bb.Finish()
}

// TestCompileLeavesDeadStoresToOptimize: a store whose variable is
// overwritten on every successor path before any read is removed by
// opt.Optimize, the front end's global dead-store pass, and kept by
// Compile, which compiles the IR as given. Both programs simulate to the
// reference final memory under the translation validator.
func TestCompileLeavesDeadStoresToOptimize(t *testing.T) {
	m, err := isdl.Parse(isdl.ExampleArchISDL)
	if err != nil {
		t.Fatal(err)
	}
	e := ir.NewBlock("entry")
	e.NewStore("t", e.NewNode(ir.OpAdd, e.NewLoad("a"), e.NewLoad("b")))
	e.NewStore("out", e.NewConst(1))
	e.Term = ir.TermBranch
	e.Cond = e.NewLoad("c")
	e.Succs = []string{"left", "right"}
	l := ir.NewBlock("left")
	l.NewStore("t", l.NewConst(0))
	l.Term = ir.TermReturn
	r := ir.NewBlock("right")
	r.NewStore("t", r.NewConst(9))
	r.Term = ir.TermReturn
	f := &ir.Func{Name: "prune", Blocks: []*ir.Block{e, l, r}}
	g := opt.Optimize(f)

	storesT := func(b *ir.Block) int {
		n := 0
		for _, node := range b.Nodes {
			if node.Op == ir.OpStore && node.Var == "t" {
				n++
			}
		}
		return n
	}
	if got := storesT(g.Blocks[0]); got != 0 {
		t.Fatalf("opt.Optimize kept %d stores of t in the entry block, want 0", got)
	}
	opts := DefaultOptions()
	opts.Verify = true
	for _, c := range []int64{0, 1} {
		mem := map[string]int64{"a": 2, "b": 3, "c": c}
		res := checkCompiled(t, f, m, mem, opts)
		if got := storesT(res.Blocks[0].Solution.Block); got != 1 {
			t.Errorf("c=%d: the compiled entry block has %d stores of t, want the 1 it was given", c, got)
		}
		checkCompiled(t, g, m, mem, opts)
	}
}
