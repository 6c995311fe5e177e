package aviv

import (
	"fmt"
	"strings"
	"testing"

	"aviv/internal/asm"
	"aviv/internal/bench"
	"aviv/internal/ir"
	"aviv/internal/isdl"
)

// The fmt-based reference renderer: one fmt call per operand, move and
// instruction. asm's append-based Program.String and String methods
// must produce the same bytes.

func refOperand(o asm.Operand) string {
	if o.IsImm {
		return fmt.Sprintf("#%d", o.Imm)
	}
	return fmt.Sprintf("R%d", o.Reg)
}

func refMicroOp(m asm.MicroOp) string {
	name := m.Op.String()
	if m.Op == ir.OpConst {
		name = "MOVI"
	}
	parts := make([]string, len(m.Srcs))
	for i, s := range m.Srcs {
		parts[i] = refOperand(s)
	}
	return fmt.Sprintf("%s: %s R%d, %s", m.Unit, name, m.Dst, strings.Join(parts, ", "))
}

func refMove(m asm.Move) string {
	src := fmt.Sprintf("%s.R%d", m.FromUnit, m.FromReg)
	if m.FromUnit == "" {
		src = "[" + m.FromMem + "]"
	}
	dst := fmt.Sprintf("%s.R%d", m.ToUnit, m.ToReg)
	if m.ToUnit == "" {
		dst = "[" + m.ToMem + "]"
	}
	return fmt.Sprintf("%s: %s -> %s", m.Bus, src, dst)
}

func refInstr(in asm.Instr) string {
	var parts []string
	for _, op := range in.Ops {
		parts = append(parts, refMicroOp(op))
	}
	for _, mv := range in.Moves {
		parts = append(parts, refMove(mv))
	}
	if len(parts) == 0 {
		return "{ NOP }"
	}
	return "{ " + strings.Join(parts, " | ") + " }"
}

func refBranch(b *asm.Branch) string {
	switch b.Kind {
	case asm.BranchJump:
		return fmt.Sprintf("JMP %s", b.Target)
	case asm.BranchCond:
		if b.CondConst != nil {
			return fmt.Sprintf("BNZ #%d, %s else %s", *b.CondConst, b.Target, b.Else)
		}
		return fmt.Sprintf("BNZ %s.R%d, %s else %s", b.CondUnit, b.CondReg, b.Target, b.Else)
	case asm.BranchHalt:
		return "HALT"
	}
	if b.Target != "" {
		return fmt.Sprintf("FALL %s", b.Target)
	}
	return "FALL"
}

func refProgram(p *asm.Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; program for %s\n", p.Machine.Name)
	for _, b := range p.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Name)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", refInstr(in))
		}
		if s := refBranch(&b.Branch); s != "FALL" {
			fmt.Fprintf(&sb, "  %s\n", s)
		}
	}
	return sb.String()
}

// checkRender compares Program.String, and every word's and branch's
// String, against the reference renderer.
func checkRender(t *testing.T, label string, p *asm.Program) {
	t.Helper()
	if got, want := p.String(), refProgram(p); got != want {
		t.Fatalf("%s: Program.String differs from the fmt reference\ngot:\n%s\nwant:\n%s", label, got, want)
	}
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			if got, want := in.String(), refInstr(in); got != want {
				t.Fatalf("%s: Instr.String = %q, want %q", label, got, want)
			}
			for _, op := range in.Ops {
				if got, want := op.String(), refMicroOp(op); got != want {
					t.Fatalf("%s: MicroOp.String = %q, want %q", label, got, want)
				}
			}
			for _, mv := range in.Moves {
				if got, want := mv.String(), refMove(mv); got != want {
					t.Fatalf("%s: Move.String = %q, want %q", label, got, want)
				}
			}
		}
		if got, want := b.Branch.String(), refBranch(&b.Branch); got != want {
			t.Fatalf("%s: Branch.String = %q, want %q", label, got, want)
		}
	}
}

// TestProgramStringMatchesFmtReference renders the difftest corpus under
// both presets, MultiBlockSource programs, and the corpus on the first
// zoo machine of each class, plus hand-built programs for the edge cases
// compiled code rarely hits.
func TestProgramStringMatchesFmtReference(t *testing.T) {
	vliw, dsp := isdl.ExampleArchFull(4), isdl.SingleIssueDSP(4)
	for _, preset := range []struct {
		name string
		opts Options
	}{{"default", DefaultOptions()}, {"exhaustive", ExhaustiveOptions()}} {
		for seed := int64(0); seed < 50; seed++ {
			src, _ := bench.DiffProgram(seed, seed%2 == 1)
			m := vliw
			if seed%2 == 1 {
				m = dsp
			}
			res, err := CompileSource(src, m, 1, preset.opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			checkRender(t, fmt.Sprintf("%s seed %d", preset.name, seed), res.Program)
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		res, err := CompileSource(bench.MultiBlockSource(seed, 25, 6), vliw, 1, DefaultOptions())
		if err != nil {
			t.Fatalf("multiblock seed %d: %v", seed, err)
		}
		checkRender(t, fmt.Sprintf("multiblock seed %d", seed), res.Program)
	}
	seen := make(map[string]bool)
	for _, e := range zooEntries(t) {
		if seen[e.Class] {
			continue
		}
		seen[e.Class] = true
		for seed := int64(0); seed < 10; seed++ {
			src, _ := bench.DiffProgram(seed, seed%2 == 1)
			res, err := CompileSource(src, e.M, 1, DefaultOptions())
			if err != nil {
				t.Fatalf("%s seed %d: %v", e.Class, seed, err)
			}
			checkRender(t, fmt.Sprintf("%s seed %d", e.Class, seed), res.Program)
		}
	}

	cond := int64(-3)
	edge := &asm.Program{
		Machine: &isdl.Machine{Name: "Edge"},
		Blocks: []*asm.Block{
			{Name: "nop", Instrs: []asm.Instr{{}}, Branch: asm.Branch{Kind: asm.BranchNone, Target: "ops"}},
			{Name: "ops", Instrs: []asm.Instr{
				{Ops: []asm.MicroOp{{Unit: "U1", Op: ir.OpAdd, Dst: 2}}},
				{Ops: []asm.MicroOp{
					{Unit: "U1", Op: ir.OpConst, Dst: 0, Srcs: []asm.Operand{{IsImm: true, Imm: -42}}},
					{Unit: "U2", Op: ir.OpMAC, Dst: 3, Srcs: []asm.Operand{{Reg: 1}, {IsImm: true, Imm: 7}, {Reg: 0}}},
				}},
				{Moves: []asm.Move{
					{Bus: "DB", FromMem: "a", ToUnit: "U1", ToReg: 1},
					{Bus: "XB", FromUnit: "U2", FromReg: 3, ToMem: "out"},
					{Bus: "IB", FromUnit: "U1", FromReg: 0, ToUnit: "U2", ToReg: 1},
				}},
				{Ops: []asm.MicroOp{{Unit: "U1", Op: ir.OpSub, Dst: 1, Srcs: []asm.Operand{{Reg: 1}, {IsImm: true, Imm: -1}}}},
					Moves: []asm.Move{{Bus: "DB", FromMem: "b", ToUnit: "U2", ToReg: 0}}},
			}, Branch: asm.Branch{Kind: asm.BranchCond, CondConst: &cond, Target: "reg", Else: "jmp"}},
			{Name: "reg", Branch: asm.Branch{Kind: asm.BranchCond, CondUnit: "U1", CondReg: 2, Target: "jmp", Else: "halt"}},
			{Name: "jmp", Branch: asm.Branch{Kind: asm.BranchJump, Target: "halt"}},
			{Name: "halt", Instrs: []asm.Instr{{}, {}}, Branch: asm.Branch{Kind: asm.BranchHalt}},
			{Name: "end"}, // bare FALL: left out of the text
		},
	}
	checkRender(t, "edge cases", edge)
	for _, want := range []string{"{ NOP }", "{ U1: ADD R2,  }", "#-42", "BNZ #-3, reg else jmp", "FALL ops"} {
		if !strings.Contains(edge.String(), want) {
			t.Errorf("edge-case text lacks %q:\n%s", want, edge)
		}
	}
	if strings.Contains(edge.String(), "FALL\n") {
		t.Errorf("a bare FALL was rendered:\n%s", edge)
	}
}
