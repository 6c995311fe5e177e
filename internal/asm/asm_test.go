package asm

import (
	"strings"
	"testing"

	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/regalloc"
)

func emit(t testing.TB, w bench.Workload, m *isdl.Machine) *Block {
	t.Helper()
	res, err := cover.CoverBlock(w.Block, m, cover.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := regalloc.Allocate(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := EmitBlock(res.Best, alloc)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

func mustEncode(t testing.TB, p *Program) []byte {
	t.Helper()
	obj, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestEmitBlockShape(t *testing.T) {
	m := isdl.ExampleArch(4)
	blk := emit(t, bench.Ex1(), m)
	if blk.BodySize() != 7 {
		t.Errorf("Ex1 body = %d instructions, want 7", blk.BodySize())
	}
	if blk.Branch.Kind != BranchHalt {
		t.Errorf("branch kind = %v, want HALT", blk.Branch.Kind)
	}
	// Every instruction slot must reference registers within bank size.
	for _, in := range blk.Instrs {
		for _, op := range in.Ops {
			u := m.Unit(op.Unit)
			if u == nil {
				t.Fatalf("unknown unit %s", op.Unit)
			}
			if op.Dst >= u.Regs.Size {
				t.Errorf("op %s writes R%d beyond bank", op, op.Dst)
			}
			for _, s := range op.Srcs {
				if !s.IsImm && s.Reg >= u.Regs.Size {
					t.Errorf("op %s reads R%d beyond bank", op, s.Reg)
				}
			}
		}
	}
}

func TestProgramString(t *testing.T) {
	m := isdl.ExampleArch(4)
	blk := emit(t, bench.Ex1(), m)
	p := &Program{Machine: m, Blocks: []*Block{blk}}
	s := p.String()
	for _, want := range []string{"Ex1:", "{ ", "HALT", "->"} {
		if !strings.Contains(s, want) {
			t.Errorf("program text missing %q:\n%s", want, s)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := isdl.ExampleArch(4)
	for _, w := range bench.PaperWorkloads() {
		blk := emit(t, w, m)
		p := &Program{Machine: m, Blocks: []*Block{blk}}
		obj := mustEncode(t, p)
		back, err := Decode(obj, m)
		if err != nil {
			t.Fatalf("%s: Decode: %v", w.Name, err)
		}
		if back.String() != p.String() {
			t.Errorf("%s: round trip mismatch:\n%s\nvs\n%s", w.Name, p, back)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	m := isdl.ExampleArch(4)
	if _, err := Decode([]byte("not an object"), m); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Decode(nil, m); err == nil {
		t.Error("empty input accepted")
	}
	// Truncation at every prefix must error, not panic.
	blk := emit(t, bench.Ex1(), m)
	obj := mustEncode(t, &Program{Machine: m, Blocks: []*Block{blk}})
	for i := 0; i < len(obj)-1; i++ {
		if _, err := Decode(obj[:i], m); err == nil {
			t.Errorf("truncated object (%d bytes) accepted", i)
		}
	}
}

func TestDecodeWrongMachine(t *testing.T) {
	m := isdl.ExampleArch(4)
	blk := emit(t, bench.Ex1(), m)
	obj := mustEncode(t, &Program{Machine: m, Blocks: []*Block{blk}})
	if _, err := Decode(obj, isdl.ArchitectureII(4)); err == nil {
		t.Error("object for ExampleVLIW loaded on ArchitectureII")
	}
}

// TestDecodeRejectsWhatParseRejects: the loader refuses each object
// whose program ParseProgram refuses as text. A branch kind past
// BranchHalt has no text form, so only the loader is asked about it.
func TestDecodeRejectsWhatParseRejects(t *testing.T) {
	m := isdl.ExampleArch(4)
	const good = "a:\n  { DB: [x] -> U1.R0 }\n  { U1: ADD R1, R0, #2 }\n  JMP b\nb:\n  HALT\n"
	cases := []struct {
		name    string
		hasText bool
		mut     func(p *Program)
	}{
		{"register-equals-bank-size", true, func(p *Program) {
			op := &p.Blocks[0].Instrs[1].Ops[0]
			op.Dst = m.Unit(op.Unit).Regs.Size
		}},
		{"store-op", true, func(p *Program) { p.Blocks[0].Instrs[1].Ops[0].Op = ir.OpStore }},
		{"branch-kind-past-halt", false, func(p *Program) { p.Blocks[1].Branch.Kind = BranchHalt + 1 }},
		{"jump-to-missing-block", true, func(p *Program) { p.Blocks[0].Branch.Target = "nowhere" }},
		{"duplicate-block", true, func(p *Program) { p.Blocks = append(p.Blocks, p.Blocks[1]) }},
	}
	for _, c := range cases {
		p, err := ParseProgram(good, m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(mustEncode(t, p), m); err != nil {
			t.Fatalf("%s: unchanged program does not load: %v", c.name, err)
		}
		c.mut(p)
		if back, err := Decode(mustEncode(t, p), m); err == nil {
			t.Errorf("%s: loader accepted\n%s", c.name, back)
		}
		if _, err := ParseProgram(p.String(), m); c.hasText && err == nil {
			t.Errorf("%s: ParseProgram accepted\n%s", c.name, p)
		}
	}
}

// TestDecodeMemoryNames: the loader takes any memory name the text form
// can spell, Unicode letters included, and refuses the rest.
func TestDecodeMemoryNames(t *testing.T) {
	m := isdl.ExampleArch(4)
	const src = "a:\n  { DB: [x] -> U1.R0 }\n  HALT\n"
	for _, c := range []struct {
		mem string
		ok  bool
	}{
		{"größe", true}, {"λx", true}, {"a[1]", true},
		{"", false}, {"a b", false}, {"a\u0085b", false}, {"a\u00a0b", false},
		{"a\x00", false}, {"\xff", false}, {"a;b", false}, {"a,b", false},
		{"a|b", false}, {"a->b", false},
	} {
		p, err := ParseProgram(src, m)
		if err != nil {
			t.Fatal(err)
		}
		p.Blocks[0].Instrs[0].Moves[0].FromMem = c.mem
		back, err := Decode(mustEncode(t, p), m)
		if (err == nil) != c.ok {
			t.Errorf("memory name %q: Decode error %v, want ok=%v", c.mem, err, c.ok)
			continue
		}
		if c.ok {
			if _, err := ParseProgram(back.String(), m); err != nil {
				t.Errorf("memory name %q: text does not re-parse: %v", c.mem, err)
			}
		}
	}
}

func TestCodeSizeCountsControlFlow(t *testing.T) {
	m := isdl.ExampleArch(4)
	b1 := emit(t, bench.Ex1(), m)
	b1.Branch = Branch{Kind: BranchJump, Target: "x"}
	b2 := emit(t, bench.Ex1(), m)
	b2.Name = "x"
	b2.Branch = Branch{Kind: BranchHalt}
	p := &Program{Machine: m, Blocks: []*Block{b1, b2}}
	want := b1.BodySize() + 1 + b2.BodySize() // jump counted, halt not
	if got := p.CodeSize(); got != want {
		t.Errorf("CodeSize = %d, want %d", got, want)
	}
}

func TestBranchString(t *testing.T) {
	c := int64(1)
	cases := []struct {
		b    Branch
		want string
	}{
		{Branch{Kind: BranchJump, Target: "t"}, "JMP t"},
		{Branch{Kind: BranchHalt}, "HALT"},
		{Branch{Kind: BranchCond, Target: "a", Else: "b", CondUnit: "U1", CondReg: 2}, "BNZ U1.R2, a else b"},
		{Branch{Kind: BranchCond, Target: "a", Else: "b", CondConst: &c}, "BNZ #1, a else b"},
	}
	for _, cse := range cases {
		if got := cse.b.String(); got != cse.want {
			t.Errorf("Branch.String() = %q, want %q", got, cse.want)
		}
	}
}

func TestMicroOpString(t *testing.T) {
	mo := MicroOp{Unit: "U1", Op: ir.OpAdd, Dst: 2, Srcs: []Operand{{Reg: 0}, {IsImm: true, Imm: 5}}}
	if got := mo.String(); got != "U1: ADD R2, R0, #5" {
		t.Errorf("MicroOp.String() = %q", got)
	}
	movi := MicroOp{Unit: "U2", Op: ir.OpConst, Dst: 0, Srcs: []Operand{{IsImm: true, Imm: 7}}}
	if got := movi.String(); got != "U2: MOVI R0, #7" {
		t.Errorf("MOVI string = %q", got)
	}
}
