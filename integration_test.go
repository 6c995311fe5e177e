package aviv

import (
	"strings"
	"testing"

	"aviv/internal/asm"
	"aviv/internal/bench"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/lang"
	"aviv/internal/sim"
)

// runSource compiles mini-C source and simulates it, comparing against
// the front end's own reference evaluation.
func runSource(t *testing.T, src string, m *isdl.Machine, unroll int, mem map[string]int64) (map[string]int64, int) {
	t.Helper()
	res, err := CompileSource(src, m, unroll, DefaultOptions())
	if err != nil {
		t.Fatalf("CompileSource: %v", err)
	}
	f, err := ParseAndLower(src, unroll)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{}
	for k, v := range mem {
		want[k] = v
	}
	if err := ir.EvalFunc(f, want, 0); err != nil {
		t.Fatal(err)
	}
	got, cycles, err := sim.RunProgram(res.Program, mem, 0)
	if err != nil {
		t.Fatalf("simulate: %v\n%s", err, res.Program)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("mem[%s] = %d, want %d\n%s", k, got[k], v, res.Program)
		}
	}
	return got, cycles
}

func TestSourceToSimulationPrograms(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	cases := []struct {
		name   string
		src    string
		unroll int
		mem    map[string]int64
		check  func(map[string]int64) bool
	}{
		{
			name: "gcd-by-subtraction",
			src: `
				while (a != b) {
					if (a > b) { a = a - b; } else { b = b - a; }
				}
				g = a;
			`,
			mem:   map[string]int64{"a": 48, "b": 36},
			check: func(mem map[string]int64) bool { return mem["g"] == 12 },
		},
		{
			name: "polynomial-horner",
			src: `
				y = 0;
				y = y * x + 2;
				y = y * x + 3;
				y = y * x + 5;
			`,
			mem:   map[string]int64{"x": 10},
			check: func(mem map[string]int64) bool { return mem["y"] == 235 },
		},
		{
			name: "unrolled-sum-of-squares",
			src: `
				s = 0;
				for (i = 0; i < 12; i = i + 1) {
					s = s + i * i;
				}
			`,
			unroll: 4,
			check:  func(mem map[string]int64) bool { return mem["s"] == 506 },
		},
		{
			name: "nested-branches",
			src: `
				if (x > 0) {
					if (x > 100) { c = 2; } else { c = 1; }
				} else {
					c = 0;
				}
			`,
			mem:   map[string]int64{"x": 50},
			check: func(mem map[string]int64) bool { return mem["c"] == 1 },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, _ := runSource(t, c.src, m, c.unroll, c.mem)
			if !c.check(got) {
				t.Errorf("result check failed: %v", got)
			}
		})
	}
}

func TestMACEndToEnd(t *testing.T) {
	// The complex-instruction path, through emission and simulation: the
	// WideDSP's MAC must appear in the assembly and compute correctly.
	bb := ir.NewBuilder("mac")
	acc := bb.Load("acc")
	sum := bb.Add(acc, bb.Mul(bb.Load("x"), bb.Load("y")))
	bb.Store("acc", sum)
	bb.Return()
	f := singleBlockFunc(bb.Finish())

	m := isdl.WideDSP(8)
	res, err := Compile(f, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text := res.Program.String()
	if !strings.Contains(text, "MAC") {
		t.Errorf("assembly does not use MAC:\n%s", text)
	}
	mem, _, err := sim.RunProgram(res.Program, map[string]int64{"acc": 100, "x": 6, "y": 7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mem["acc"] != 142 {
		t.Errorf("acc = %d, want 142", mem["acc"])
	}
}

func TestSerialFallbackEndToEnd(t *testing.T) {
	// A machine so register-starved that the clique coverer fails; the
	// serial fallback must still produce correct code.
	m := isdl.NewMachine("Tiny")
	m.AddUnit("U1", 2, ir.OpAdd, ir.OpSub, ir.OpMul)
	m.AddMemory("DM")
	m.AddBus("B", 1)
	m.ConnectAll("B")
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Heavy value reuse forces pressure on the single 2-register bank.
	bb := ir.NewBuilder("tight")
	a := bb.Load("a")
	b := bb.Load("b")
	s1 := bb.Add(a, b)
	s2 := bb.Mul(s1, a)
	s3 := bb.Sub(s2, b)
	s4 := bb.Add(s3, s1)
	bb.Store("o", bb.Mul(s4, s2))
	bb.Return()
	f := singleBlockFunc(bb.Finish())

	res, err := Compile(f, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mem := map[string]int64{"a": 3, "b": 4}
	want := map[string]int64{"a": 3, "b": 4}
	if err := ir.EvalFunc(f, want, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := sim.RunProgram(res.Program, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got["o"] != want["o"] {
		t.Errorf("o = %d, want %d", got["o"], want["o"])
	}
}

func TestAssemblerTextRoundTripWholeProgram(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	src := `
		s = 0;
		for (i = 0; i < 4; i = i + 1) { s = s + x; }
	`
	res, err := CompileSource(src, m, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text := res.Program.String()
	back, err := asm.ParseProgram(text, m)
	if err != nil {
		t.Fatalf("ParseProgram of emitted assembly: %v\n%s", err, text)
	}
	mem1, _, err := sim.RunProgram(res.Program, map[string]int64{"x": 9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mem2, _, err := sim.RunProgram(back, map[string]int64{"x": 9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mem1["s"] != mem2["s"] || mem1["s"] != 36 {
		t.Errorf("s: direct %d vs reassembled %d, want 36", mem1["s"], mem2["s"])
	}
}

// TestUnicodeNamesSurviveObjectAndText compiles programs whose
// variables are non-ASCII letters, which the front end accepts, and
// checks that both loaders take back what the compiler emits: the
// object file and the assembly text.
func TestUnicodeNamesSurviveObjectAndText(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	for _, src := range []string{
		"größe = ärger + 1;",
		"π = 3; λx = π * 2;",
	} {
		res, err := CompileSource(src, m, 1, DefaultOptions())
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		obj, err := asm.Encode(res.Program)
		if err != nil {
			t.Fatalf("%q: Encode: %v", src, err)
		}
		if _, err := asm.Decode(obj, m); err != nil {
			t.Errorf("%q: Decode: %v", src, err)
		}
		text := res.Program.String()
		back, err := asm.ParseProgram(text, m)
		if err != nil {
			t.Errorf("%q: ParseProgram: %v\n%s", src, err, text)
		} else if back.String() != text {
			t.Errorf("%q: text does not round-trip:\n%s\nvs\n%s", src, back, text)
		}
	}
}

func TestPaperWorkloadsSimulateOnAllMachines(t *testing.T) {
	machines := []*isdl.Machine{
		isdl.ExampleArch(4), isdl.ExampleArch(2),
		isdl.ArchitectureII(4), isdl.WideDSP(4), isdl.SingleIssueDSP(4),
	}
	for _, w := range bench.PaperWorkloads() {
		want := map[string]int64{}
		for k, v := range w.Mem {
			want[k] = v
		}
		if _, err := ir.EvalBlock(w.Block, want); err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			res, err := Compile(singleBlockFunc(w.Block), m, DefaultOptions())
			if err != nil {
				t.Fatalf("%s on %s: %v", w.Name, m.Name, err)
			}
			got, _, err := sim.RunProgram(res.Program, w.Mem, 0)
			if err != nil {
				t.Fatalf("%s on %s: %v", w.Name, m.Name, err)
			}
			for k, v := range want {
				if got[k] != v {
					t.Errorf("%s on %s: mem[%s] = %d, want %d", w.Name, m.Name, k, got[k], v)
				}
			}
		}
	}
}

func TestUnrollShrinksCyclesGrowsCode(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	src := `
		s = 0;
		for (i = 0; i < 8; i = i + 1) { s = s + x * i; }
	`
	var prevCycles = 1 << 30
	var sizes []int
	for _, factor := range []int{1, 4} {
		res, err := CompileSource(src, m, factor, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		_, cycles, err := sim.RunProgram(res.Program, map[string]int64{"x": 2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cycles >= prevCycles {
			t.Errorf("unroll %d: cycles %d did not improve on %d", factor, cycles, prevCycles)
		}
		prevCycles = cycles
		sizes = append(sizes, res.CodeSize())
	}
	if sizes[1] <= sizes[0] {
		t.Errorf("unrolling did not grow code size: %v", sizes)
	}
}

func TestLangOptIntegration(t *testing.T) {
	// Constant-heavy source folds down to almost nothing.
	src := `
		a = 2 + 3 * 4;
		if (a == 14) { r = a * 2; } else { r = 0; }
	`
	f, err := ParseAndLower(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Branch folding + unreachable removal leave a single block.
	if len(f.Blocks) > 2 {
		t.Errorf("constant program kept %d blocks", len(f.Blocks))
	}
	got, _ := runSource(t, src, isdl.ExampleArchFull(4), 1, nil)
	if got["r"] != 28 {
		t.Errorf("r = %d, want 28", got["r"])
	}
	_ = lang.Program{} // keep lang imported for documentation parity
}

func TestBlockLayoutSavesJumps(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	src := `
		if (x > 0) { r = 1; } else { r = 2; }
		s = r + 1;
	`
	res, err := CompileSource(src, m, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// At most one JMP should survive layout for a diamond (one arm falls
	// through to the join, the other needs a jump).
	jumps := 0
	for _, b := range res.Program.Blocks {
		if b.Branch.Kind == asm.BranchJump {
			jumps++
		}
	}
	if jumps > 1 {
		t.Errorf("%d jumps survived block layout, want <= 1\n%s", jumps, res.Program)
	}
	// Semantics preserved on both paths.
	for _, x := range []int64{5, -5} {
		got, _, err := sim.RunProgram(res.Program, map[string]int64{"x": x}, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(2)
		if x > 0 {
			want = 1
		}
		if got["r"] != want || got["s"] != want+1 {
			t.Errorf("x=%d: r=%d s=%d, want r=%d", x, got["r"], got["s"], want)
		}
	}
}

func TestPipelinedMachineEndToEnd(t *testing.T) {
	// A 3-cycle multiplier: code must pad or fill latency shadows, and
	// the no-interlock simulator (delayed write commit) catches any
	// violation as a wrong result.
	m := isdl.ExampleArchFull(4)
	m.Unit("U2").SetLatency(ir.OpMul, 3)
	m.Unit("U3").SetLatency(ir.OpMul, 3)
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	src := `
		acc = 0;
		for (i = 1; i < 6; i = i + 1) {
			acc = acc + i * i * x;
		}
		out = acc * 2;
	`
	got, _ := runSource(t, src, m, 1, map[string]int64{"x": 3})
	if got["out"] != 2*3*(1+4+9+16+25) {
		t.Errorf("out = %d, want 330", got["out"])
	}
}

func TestPipelinedBranchCondition(t *testing.T) {
	// The branch condition itself comes from a multi-cycle op: the block
	// must drain the latency before branching.
	m := isdl.ExampleArchFull(4)
	for _, op := range []ir.Op{ir.OpCmpLT, ir.OpCmpGT, ir.OpCmpNE, ir.OpCmpEQ} {
		m.Unit("U1").SetLatency(op, 2)
	}
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	src := `
		n = 0;
		while (x > 0) {
			x = x - 3;
			n = n + 1;
		}
	`
	got, _ := runSource(t, src, m, 1, map[string]int64{"x": 10})
	if got["n"] != 4 {
		t.Errorf("n = %d, want 4", got["n"])
	}
}

func TestLatencyISDLSource(t *testing.T) {
	// Latency annotations parse from text and shape the code.
	machineSrc := `
machine PipeDSP
unit ALU { regs 4 ops ADD SUB CMPLT CMPNE }
unit MPY { regs 4 ops MUL:4 ADD }
memory DM
bus B width 1
connect all via B
`
	m, err := LoadMachine(machineSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Unit("MPY").LatencyOf(ir.OpMul); got != 4 {
		t.Fatalf("parsed MUL latency = %d, want 4", got)
	}
	if got := m.Unit("MPY").LatencyOf(ir.OpAdd); got != 1 {
		t.Fatalf("parsed ADD latency = %d, want 1", got)
	}
	got, _ := runSource(t, `p = a * b; q = p * p; r = q - a;`, m, 1,
		map[string]int64{"a": 3, "b": 5})
	if got["r"] != 15*15-3 {
		t.Errorf("r = %d, want 222", got["r"])
	}
}

func TestBreakContinueEndToEnd(t *testing.T) {
	src := `
		s = 0;
		for (i = 0; i < 50; i = i + 1) {
			if (i == 7) { break; }
			if (i % 2 == 0) { continue; }
			s = s + i;
		}
		r = s * 10 + i;
	`
	// SingleIssueDSP carries the full op repertoire (MOD included).
	got, _ := runSource(t, src, isdl.SingleIssueDSP(4), 1, nil)
	if got["r"] != (1+3+5)*10+7 {
		t.Errorf("r = %d, want 97", got["r"])
	}
}

func TestDualMemoryEndToEnd(t *testing.T) {
	// X/Y banked machine: correct results and smaller code with a good
	// placement, through the full pipeline and simulator.
	bb := ir.NewBuilder("dot4")
	var acc *ir.Node
	mem := map[string]int64{}
	for i := 0; i < 4; i++ {
		x := "x" + string(rune('0'+i))
		c := "c" + string(rune('0'+i))
		mem[x], mem[c] = int64(i+1), int64(i+2)
		term := bb.Mul(bb.Load(x), bb.Load(c))
		if acc == nil {
			acc = term
		} else {
			acc = bb.Add(acc, term)
		}
	}
	bb.Store("y", acc)
	bb.Return()
	f := singleBlockFunc(bb.Finish())

	m := isdl.DualMemDSP(4)
	opts := DefaultOptions()
	opts.Cover.VarPlacement = map[string]string{
		"x0": "XM", "x1": "XM", "x2": "XM", "x3": "XM",
		"c0": "YM", "c1": "YM", "c2": "YM", "c3": "YM",
	}
	res, err := Compile(f, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sim.RunProgram(res.Program, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(1*2 + 2*3 + 3*4 + 4*5)
	if got["y"] != want {
		t.Errorf("y = %d, want %d", got["y"], want)
	}
	// Placement must beat the single-bank layout (auto-placement off).
	noPlace := DefaultOptions()
	noPlace.AutoPlace = false
	base, err := Compile(f, m, noPlace)
	if err != nil {
		t.Fatal(err)
	}
	if res.CodeSize() >= base.CodeSize() {
		t.Errorf("placed code %d !< unplaced %d", res.CodeSize(), base.CodeSize())
	}
}

func TestAutoPlaceInCompile(t *testing.T) {
	// DefaultOptions auto-places on dual-memory machines: the dot kernel
	// should get the banked layout without any explicit placement.
	bb := ir.NewBuilder("dot")
	var acc *ir.Node
	mem := map[string]int64{}
	for i := 0; i < 4; i++ {
		x, c := "x"+string(rune('0'+i)), "c"+string(rune('0'+i))
		mem[x], mem[c] = int64(i+1), int64(i+2)
		term := bb.Mul(bb.Load(x), bb.Load(c))
		if acc == nil {
			acc = term
		} else {
			acc = bb.Add(acc, term)
		}
	}
	bb.Store("y", acc)
	bb.Return()
	f := singleBlockFunc(bb.Finish())
	m := isdl.DualMemDSP(4)

	auto, err := Compile(f, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	noAuto := DefaultOptions()
	noAuto.AutoPlace = false
	plain, err := Compile(f, m, noAuto)
	if err != nil {
		t.Fatal(err)
	}
	if auto.CodeSize() >= plain.CodeSize() {
		t.Errorf("auto-placed code %d !< unplaced %d", auto.CodeSize(), plain.CodeSize())
	}
	got, _, err := sim.RunProgram(auto.Program, mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got["y"] != 1*2+2*3+3*4+4*5 {
		t.Errorf("y = %d", got["y"])
	}
}

func TestClusteredVLIWEndToEnd(t *testing.T) {
	// Shared register banks through the whole pipeline: compile,
	// assemble, simulate, verify — plus correct results across clusters.
	m := isdl.ClusteredVLIW(4)
	bb := ir.NewBuilder("cl")
	sum := bb.Add(bb.Load("a"), bb.Load("b"))
	neg := bb.Op(ir.OpCompl, bb.Load("c")) // A1 only (cluster 1)
	bb.Store("o", bb.Mul(sum, neg))
	bb.Store("p", bb.Sub(sum, bb.Load("d")))
	bb.Return()
	f := singleBlockFunc(bb.Finish())

	res, err := Compile(f, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Binary object round trip on a banked machine.
	obj, err := asm.Encode(res.Program)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := asm.Decode(obj, m)
	if err != nil {
		t.Fatal(err)
	}
	mem := map[string]int64{"a": 3, "b": 4, "c": 5, "d": 1}
	got, _, err := sim.RunProgram(loaded, mem, 0)
	if err != nil {
		t.Fatalf("%v\n%s", err, res.Program)
	}
	if got["o"] != 7*(^int64(5)) || got["p"] != 6 {
		t.Errorf("o=%d p=%d, want %d and 6\n%s", got["o"], got["p"], 7*(^int64(5)), res.Program)
	}
	// Assembly text mentions bank names, and re-parses.
	text := res.Program.String()
	if !strings.Contains(text, "C0.R") && !strings.Contains(text, "C1.R") {
		t.Errorf("assembly does not use bank registers:\n%s", text)
	}
	if _, err := asm.ParseProgram(text, m); err != nil {
		t.Errorf("emitted clustered assembly does not re-parse: %v\n%s", err, text)
	}
}
