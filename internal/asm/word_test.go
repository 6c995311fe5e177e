package asm

import (
	"fmt"
	"testing"

	"aviv/internal/bench"
	"aviv/internal/isdl"
)

func TestWordLayoutSanity(t *testing.T) {
	for _, m := range []*isdl.Machine{
		isdl.ExampleArch(4), isdl.ArchitectureII(4), isdl.WideDSP(8), isdl.SingleIssueDSP(16),
	} {
		l := NewWordLayout(m)
		if l.Bits <= 0 {
			t.Errorf("%s: %d-bit word", m.Name, l.Bits)
		}
		if l.WordsPerInstr() != (l.Bits+63)/64 {
			t.Errorf("%s: WordsPerInstr inconsistent", m.Name)
		}
		// Wider machines need wider words.
		desc := l.Describe()
		if desc == "" {
			t.Error("empty describe")
		}
	}
	// Architecture II (2 units) must have a narrower word than the
	// 3-unit example machine — the hardware/code-size trade-off the
	// paper's design-space exploration weighs.
	l3 := NewWordLayout(isdl.ExampleArch(4))
	l2 := NewWordLayout(isdl.ArchitectureII(4))
	if l2.Bits >= l3.Bits {
		t.Errorf("ArchII word %d bits !< ExampleArch %d bits", l2.Bits, l3.Bits)
	}
}

func TestEncodeWordsRoundTrip(t *testing.T) {
	m := isdl.ExampleArch(4)
	for _, w := range bench.PaperWorkloads() {
		blk := emit(t, w, m)
		p := &Program{Machine: m, Blocks: []*Block{blk}}
		wp, err := EncodeWords(p)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if wp.NumInstrs != len(blk.Instrs)+1 { // +HALT control word
			t.Errorf("%s: encoded %d instrs, want %d", w.Name, wp.NumInstrs, len(blk.Instrs)+1)
		}
		if wp.ROMBits() != wp.NumInstrs*wp.Layout.Bits {
			t.Errorf("%s: ROMBits inconsistent", w.Name)
		}
		instrs, branches, err := wp.Disassemble(m)
		if err != nil {
			t.Fatalf("%s: disassemble: %v", w.Name, err)
		}
		if len(instrs) != len(blk.Instrs) || len(branches) != 1 {
			t.Fatalf("%s: got %d instrs %d branches", w.Name, len(instrs), len(branches))
		}
		for i, in := range instrs {
			if fmt.Sprint(in.String()) != blk.Instrs[i].String() {
				t.Errorf("%s instr %d:\n got %s\nwant %s", w.Name, i, in.String(), blk.Instrs[i].String())
			}
		}
		if branches[0].Kind != BranchHalt {
			t.Errorf("%s: branch = %v", w.Name, branches[0])
		}
	}
}

func TestEncodeWordsControlFlow(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	src := `
entry:
  { DB: [x] -> U1.R0 }
  { U1: CMPLT R1, R0, #10 }
  BNZ U1.R1, small else big
small:
  { U2: MOVI R0, #1 }
  JMP done
big:
  { U2: MOVI R0, #2 }
  FALL done
done:
  HALT
`
	p, err := ParseProgram(src, m)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := EncodeWords(p)
	if err != nil {
		t.Fatal(err)
	}
	_, branches, err := wp.Disassemble(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(branches) != 4 {
		t.Fatalf("got %d control words, want 4", len(branches))
	}
	if branches[0].Kind != BranchCond || branches[0].Target != "small" || branches[0].Else != "big" {
		t.Errorf("BNZ decoded wrong: %+v", branches[0])
	}
	if branches[0].CondUnit != "U1" || branches[0].CondReg != 1 {
		t.Errorf("BNZ condition decoded wrong: %+v", branches[0])
	}
	if branches[1].Kind != BranchJump || branches[1].Target != "done" {
		t.Errorf("JMP decoded wrong: %+v", branches[1])
	}
	if branches[2].Kind != BranchNone || branches[2].Target != "done" {
		t.Errorf("FALL decoded wrong: %+v", branches[2])
	}
	if branches[3].Kind != BranchHalt {
		t.Errorf("HALT decoded wrong: %+v", branches[3])
	}
	// Offsets: entry at 0, small at 2 (2 body + 1 control for entry...).
	if wp.BlockOffsets["entry"] != 0 {
		t.Errorf("entry offset = %d", wp.BlockOffsets["entry"])
	}
	if wp.BlockOffsets["small"] != 3 {
		t.Errorf("small offset = %d, want 3", wp.BlockOffsets["small"])
	}
}

func TestROMSizeComparesArchitectures(t *testing.T) {
	// The real cost function: ROM bits = instrs x word width. A narrower
	// machine can win on ROM even with a few more instructions.
	w := bench.Ex2()
	total := map[string]int{}
	for _, m := range []*isdl.Machine{isdl.ExampleArch(4), isdl.ArchitectureII(4)} {
		blk := emit(t, bench.Workload{Name: w.Name, Block: w.Block}, m)
		p := &Program{Machine: m, Blocks: []*Block{blk}}
		wp, err := EncodeWords(p)
		if err != nil {
			t.Fatal(err)
		}
		total[m.Name] = wp.ROMBits()
	}
	if total["ArchitectureII"] >= total["ExampleVLIW"] {
		t.Logf("note: ArchII ROM %d bits vs ExampleVLIW %d bits", total["ArchitectureII"], total["ExampleVLIW"])
	}
	for name, bits := range total {
		if bits <= 0 {
			t.Errorf("%s: ROM bits = %d", name, bits)
		}
	}
}

func TestEncodeWordsClusteredBanks(t *testing.T) {
	// Bank-indexed move endpoints must round-trip on a shared-bank
	// machine (2 banks for 4 units).
	m := isdl.ClusteredVLIW(4)
	src := `
b:
  { DB: [x] -> C0.R0 }
  { XB: C0.R0 -> C1.R1 | DB: [y] -> C0.R2 }
  { A1: ADD R0, R1, R1 }
  { DB: C1.R0 -> [o] }
  HALT
`
	p, err := ParseProgram(src, m)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := EncodeWords(p)
	if err != nil {
		t.Fatal(err)
	}
	instrs, branches, err := wp.Disassemble(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(instrs) != 4 || len(branches) != 1 {
		t.Fatalf("decoded %d instrs %d branches", len(instrs), len(branches))
	}
	// Decoding orders move slots by machine bus order; compare slot SETS.
	slotSet := func(in Instr) map[string]bool {
		set := map[string]bool{}
		for _, op := range in.Ops {
			set[op.String()] = true
		}
		for _, mv := range in.Moves {
			set[mv.String()] = true
		}
		return set
	}
	for i, in := range instrs {
		got, want := slotSet(in), slotSet(p.Blocks[0].Instrs[i])
		if len(got) != len(want) {
			t.Errorf("instr %d: %v vs %v", i, got, want)
			continue
		}
		for k := range want {
			if !got[k] {
				t.Errorf("instr %d missing slot %q", i, k)
			}
		}
	}
	// Binary object round trip too.
	obj := mustEncode(t, p)
	back, err := Decode(obj, m)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != p.String() {
		t.Errorf("object round trip mismatch:\n%s\nvs\n%s", p, back)
	}
}
