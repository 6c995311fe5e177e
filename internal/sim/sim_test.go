package sim

import (
	"strings"
	"testing"

	"aviv/internal/asm"
	"aviv/internal/ir"
	"aviv/internal/isdl"
)

// handProgram builds a small program by hand:
//
//	b0: R0 <- [x]; R1 <- MOVI 10; R2 <- R0 < R1; BNZ small else big
//	small: [r] <- 1 path via MOVI; big: [r] <- 2.
func handProgram(m *isdl.Machine) *asm.Program {
	b0 := &asm.Block{Name: "b0"}
	b0.Instrs = append(b0.Instrs,
		asm.Instr{Moves: []asm.Move{{Bus: "DB", FromMem: "x", ToUnit: "U1", ToReg: 0}}},
		asm.Instr{Ops: []asm.MicroOp{{Unit: "U1", Op: ir.OpConst, Dst: 1, Srcs: []asm.Operand{{IsImm: true, Imm: 10}}}}},
		asm.Instr{Ops: []asm.MicroOp{{Unit: "U1", Op: ir.OpCmpLT, Dst: 2, Srcs: []asm.Operand{{Reg: 0}, {Reg: 1}}}}},
	)
	b0.Branch = asm.Branch{Kind: asm.BranchCond, Target: "small", Else: "big", CondUnit: "U1", CondReg: 2}

	small := &asm.Block{Name: "small"}
	small.Instrs = append(small.Instrs,
		asm.Instr{Ops: []asm.MicroOp{{Unit: "U2", Op: ir.OpConst, Dst: 0, Srcs: []asm.Operand{{IsImm: true, Imm: 1}}}}},
		asm.Instr{Moves: []asm.Move{{Bus: "DB", FromUnit: "U2", FromReg: 0, ToMem: "r"}}},
	)
	small.Branch = asm.Branch{Kind: asm.BranchHalt}

	big := &asm.Block{Name: "big"}
	big.Instrs = append(big.Instrs,
		asm.Instr{Ops: []asm.MicroOp{{Unit: "U2", Op: ir.OpConst, Dst: 0, Srcs: []asm.Operand{{IsImm: true, Imm: 2}}}}},
		asm.Instr{Moves: []asm.Move{{Bus: "DB", FromUnit: "U2", FromReg: 0, ToMem: "r"}}},
	)
	big.Branch = asm.Branch{Kind: asm.BranchHalt}

	mach := m
	if !mach.Unit("U1").Can(ir.OpCmpLT) {
		mach.Unit("U1").Ops[ir.OpCmpLT] = true
		if err := mach.Finalize(); err != nil {
			panic(err)
		}
	}
	return &asm.Program{Machine: mach, Blocks: []*asm.Block{b0, small, big}}
}

func TestBranchBothWays(t *testing.T) {
	p := handProgram(isdl.ExampleArch(4))
	mem, cycles, err := RunProgram(p, map[string]int64{"x": 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mem["r"] != 1 {
		t.Errorf("x=5: r = %d, want 1 (small)", mem["r"])
	}
	if cycles == 0 {
		t.Error("no cycles counted")
	}
	mem, _, err = RunProgram(p, map[string]int64{"x": 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mem["r"] != 2 {
		t.Errorf("x=50: r = %d, want 2 (big)", mem["r"])
	}
}

func TestParallelReadBeforeWrite(t *testing.T) {
	// A swap in one instruction: both moves read pre-instruction state.
	m := isdl.ExampleArch(4)
	m.Bus("DB").Width = 2
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	b := &asm.Block{Name: "b"}
	b.Instrs = append(b.Instrs,
		asm.Instr{Moves: []asm.Move{{Bus: "DB", FromMem: "a", ToUnit: "U1", ToReg: 0}, {Bus: "DB", FromMem: "b", ToUnit: "U1", ToReg: 1}}},
		// Swap R0 and R1 in one cycle.
		asm.Instr{Moves: []asm.Move{
			{Bus: "DB", FromUnit: "U1", FromReg: 0, ToUnit: "U1", ToReg: 1},
			{Bus: "DB", FromUnit: "U1", FromReg: 1, ToUnit: "U1", ToReg: 0},
		}},
		asm.Instr{Moves: []asm.Move{{Bus: "DB", FromUnit: "U1", FromReg: 0, ToMem: "oa"}}},
		asm.Instr{Moves: []asm.Move{{Bus: "DB", FromUnit: "U1", FromReg: 1, ToMem: "ob"}}},
	)
	b.Branch = asm.Branch{Kind: asm.BranchHalt}
	p := &asm.Program{Machine: m, Blocks: []*asm.Block{b}}
	mem, _, err := RunProgram(p, map[string]int64{"a": 111, "b": 222}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mem["oa"] != 222 || mem["ob"] != 111 {
		t.Errorf("swap failed: oa=%d ob=%d", mem["oa"], mem["ob"])
	}
}

func TestInfiniteLoopGuard(t *testing.T) {
	m := isdl.ExampleArch(4)
	b := &asm.Block{Name: "spin"}
	b.Branch = asm.Branch{Kind: asm.BranchJump, Target: "spin"}
	p := &asm.Program{Machine: m, Blocks: []*asm.Block{b}}
	if _, _, err := RunProgram(p, nil, 100); err == nil {
		t.Error("infinite loop not caught")
	}
}

func TestBadReferences(t *testing.T) {
	m := isdl.ExampleArch(2)
	mk := func(in asm.Instr) *asm.Program {
		b := &asm.Block{Name: "b", Instrs: []asm.Instr{in}, Branch: asm.Branch{Kind: asm.BranchHalt}}
		return &asm.Program{Machine: m, Blocks: []*asm.Block{b}}
	}
	bad := []asm.Instr{
		{Ops: []asm.MicroOp{{Unit: "U9", Op: ir.OpAdd, Dst: 0, Srcs: []asm.Operand{{Reg: 0}, {Reg: 1}}}}},
		{Ops: []asm.MicroOp{{Unit: "U1", Op: ir.OpAdd, Dst: 7, Srcs: []asm.Operand{{Reg: 0}, {Reg: 1}}}}},
		{Ops: []asm.MicroOp{{Unit: "U1", Op: ir.OpAdd, Dst: 0, Srcs: []asm.Operand{{Reg: 9}, {Reg: 1}}}}},
		{Moves: []asm.Move{{Bus: "DB", FromUnit: "U1", FromReg: 9, ToMem: "x"}}},
		{Moves: []asm.Move{{Bus: "DB", FromMem: "x", ToUnit: "U1", ToReg: 9}}},
	}
	for i, in := range bad {
		if _, _, err := RunProgram(mk(in), nil, 10); err == nil {
			t.Errorf("bad instr %d accepted", i)
		}
	}
	// Jump to a missing block.
	b := &asm.Block{Name: "b", Branch: asm.Branch{Kind: asm.BranchJump, Target: "nowhere"}}
	if _, _, err := RunProgram(&asm.Program{Machine: m, Blocks: []*asm.Block{b}}, nil, 10); err == nil {
		t.Error("jump to missing block accepted")
	}
}

func TestRuntimeDivByZero(t *testing.T) {
	m := isdl.SingleIssueDSP(4)
	b := &asm.Block{Name: "b"}
	b.Instrs = append(b.Instrs,
		asm.Instr{Moves: []asm.Move{{Bus: "DB", FromMem: "x", ToUnit: "U1", ToReg: 0}}},
		asm.Instr{Ops: []asm.MicroOp{{Unit: "U1", Op: ir.OpDiv, Dst: 1, Srcs: []asm.Operand{{Reg: 0}, {IsImm: true, Imm: 0}}}}},
	)
	b.Branch = asm.Branch{Kind: asm.BranchHalt}
	p := &asm.Program{Machine: m, Blocks: []*asm.Block{b}}
	if _, _, err := RunProgram(p, map[string]int64{"x": 5}, 0); err == nil {
		t.Error("division by zero not reported")
	}
}

func TestTraceFn(t *testing.T) {
	p := handProgram(isdl.ExampleArch(4))
	machine := New(p, map[string]int64{"x": 1})
	var lines []string
	machine.TraceFn = func(s string) { lines = append(lines, s) }
	if err := machine.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("no trace lines")
	}
	if !strings.Contains(lines[0], "cycle 0") {
		t.Errorf("first trace line: %q", lines[0])
	}
	if v, err := machine.Reg("U1", 2); err != nil || v != 1 {
		t.Errorf("Reg(U1,2) = %d, %v", v, err)
	}
	if _, err := machine.Reg("U9", 0); err == nil {
		t.Error("Reg on unknown unit accepted")
	}
}

func TestConstCondBranch(t *testing.T) {
	m := isdl.ExampleArch(4)
	one := int64(1)
	b0 := &asm.Block{Name: "b0", Branch: asm.Branch{Kind: asm.BranchCond, Target: "t", Else: "e", CondConst: &one}}
	tb := &asm.Block{Name: "t", Instrs: []asm.Instr{
		{Ops: []asm.MicroOp{{Unit: "U1", Op: ir.OpConst, Dst: 0, Srcs: []asm.Operand{{IsImm: true, Imm: 9}}}}},
		{Moves: []asm.Move{{Bus: "DB", FromUnit: "U1", FromReg: 0, ToMem: "r"}}},
	}, Branch: asm.Branch{Kind: asm.BranchHalt}}
	eb := &asm.Block{Name: "e", Branch: asm.Branch{Kind: asm.BranchHalt}}
	p := &asm.Program{Machine: m, Blocks: []*asm.Block{b0, tb, eb}}
	mem, _, err := RunProgram(p, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mem["r"] != 9 {
		t.Errorf("constant branch not taken: %v", mem)
	}
}
