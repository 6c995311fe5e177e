package isdl

import (
	"strings"
	"testing"
	"testing/quick"

	"aviv/internal/ir"
)

func TestExampleArchStructure(t *testing.T) {
	m := ExampleArch(4)
	if len(m.Units) != 3 {
		t.Fatalf("got %d units, want 3", len(m.Units))
	}
	u1, u2, u3 := m.Unit("U1"), m.Unit("U2"), m.Unit("U3")
	if u1 == nil || u2 == nil || u3 == nil {
		t.Fatal("missing units")
	}
	// Paper Fig. 3 repertoires.
	checks := []struct {
		u    *Unit
		op   ir.Op
		want bool
	}{
		{u1, ir.OpAdd, true}, {u1, ir.OpSub, true}, {u1, ir.OpMul, false}, {u1, ir.OpCompl, true},
		{u2, ir.OpAdd, true}, {u2, ir.OpSub, true}, {u2, ir.OpMul, true},
		{u3, ir.OpAdd, true}, {u3, ir.OpSub, false}, {u3, ir.OpMul, true},
	}
	for _, c := range checks {
		if c.u.Can(c.op) != c.want {
			t.Errorf("%s.Can(%s) = %v, want %v", c.u.Name, c.op, c.u.Can(c.op), c.want)
		}
	}
	// Op -> unit database: ADD on all three units, MUL on U2 and U3.
	if got := len(m.UnitsFor(ir.OpAdd)); got != 3 {
		t.Errorf("UnitsFor(ADD) = %d units, want 3", got)
	}
	mulUnits := m.UnitsFor(ir.OpMul)
	if len(mulUnits) != 2 || mulUnits[0].Name != "U2" || mulUnits[1].Name != "U3" {
		t.Errorf("UnitsFor(MUL) = %v, want [U2 U3]", mulUnits)
	}
	if m.UnitsFor(ir.OpDiv) != nil {
		t.Errorf("UnitsFor(DIV) should be empty")
	}
	if m.DataMemory() == nil || m.DataMemory().Name != "DM" {
		t.Errorf("DataMemory = %v, want DM", m.DataMemory())
	}
}

func TestArchitectureII(t *testing.T) {
	m := ArchitectureII(4)
	if m.Unit("U3") != nil {
		t.Error("ArchitectureII should not have U3")
	}
	if m.Unit("U1").Can(ir.OpSub) {
		t.Error("ArchitectureII U1 should not perform SUB")
	}
	if got := len(m.UnitsFor(ir.OpMul)); got != 1 {
		t.Errorf("UnitsFor(MUL) = %d units, want 1", got)
	}
}

func TestTransferPathsDirect(t *testing.T) {
	m := ExampleArch(4)
	ps := m.TransferPaths(UnitLoc("U1"), UnitLoc("U2"))
	if len(ps) != 1 {
		t.Fatalf("U1->U2: got %d paths, want 1", len(ps))
	}
	if len(ps[0]) != 1 {
		t.Fatalf("U1->U2 path has %d hops, want 1", len(ps[0]))
	}
	if ps[0][0].Bus != "DB" {
		t.Errorf("path bus = %s, want DB", ps[0][0].Bus)
	}
	// Unit to memory and back.
	if m.PathCost(UnitLoc("U1"), MemLoc("DM")) != 1 {
		t.Error("U1->DM should cost 1")
	}
	if m.PathCost(MemLoc("DM"), UnitLoc("U3")) != 1 {
		t.Error("DM->U3 should cost 1")
	}
	// Self-transfer is free.
	if m.PathCost(UnitLoc("U1"), UnitLoc("U1")) != 0 {
		t.Error("U1->U1 should cost 0")
	}
	if !m.Reachable(UnitLoc("U2"), UnitLoc("U3")) {
		t.Error("U2->U3 should be reachable")
	}
}

func TestTransferPathsMultiHop(t *testing.T) {
	// A chain machine: U1 -> U2 -> U3 with no direct U1->U3 path.
	m := NewMachine("Chain")
	m.AddUnit("U1", 4, ir.OpAdd)
	m.AddUnit("U2", 4, ir.OpAdd)
	m.AddUnit("U3", 4, ir.OpMul)
	m.AddMemory("DM")
	m.AddBus("B12", 1)
	m.AddBus("B23", 1)
	m.AddTransfer(UnitLoc("U1"), UnitLoc("U2"), "B12")
	m.AddTransfer(UnitLoc("U2"), UnitLoc("U3"), "B23")
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	ps := m.TransferPaths(UnitLoc("U1"), UnitLoc("U3"))
	if len(ps) != 1 || len(ps[0]) != 2 {
		t.Fatalf("U1->U3: got %v, want one 2-hop path", ps)
	}
	if ps[0][0].To != UnitLoc("U2") {
		t.Errorf("first hop goes to %v, want U2", ps[0][0].To)
	}
	// No reverse path exists.
	if m.Reachable(UnitLoc("U3"), UnitLoc("U1")) {
		t.Error("U3->U1 should be unreachable")
	}
	if m.PathCost(UnitLoc("U3"), UnitLoc("U1")) != -1 {
		t.Error("unreachable PathCost should be -1")
	}
}

func TestTransferPathsAlternatives(t *testing.T) {
	// Two parallel buses between U1 and U2: both 1-hop paths must appear.
	m := NewMachine("Dual")
	m.AddUnit("U1", 4, ir.OpAdd)
	m.AddUnit("U2", 4, ir.OpMul)
	m.AddMemory("DM")
	m.AddBus("BA", 1)
	m.AddBus("BB", 1)
	m.AddTransfer(UnitLoc("U1"), UnitLoc("U2"), "BA")
	m.AddTransfer(UnitLoc("U1"), UnitLoc("U2"), "BB")
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	ps := m.TransferPaths(UnitLoc("U1"), UnitLoc("U2"))
	if len(ps) != 2 {
		t.Fatalf("got %d paths, want 2 alternatives", len(ps))
	}
	buses := map[string]bool{}
	for _, p := range ps {
		buses[p[0].Bus] = true
	}
	if !buses["BA"] || !buses["BB"] {
		t.Errorf("alternative paths = %v, want both BA and BB", buses)
	}
}

func TestCheckGroup(t *testing.T) {
	m := ExampleArch(4)
	ok := []SlotRef{{Unit: "U1", Op: ir.OpAdd}, {Unit: "U2", Op: ir.OpMul}}
	if err := m.CheckGroup(ok, nil); err != nil {
		t.Errorf("legal group rejected: %v", err)
	}
	if err := m.CheckGroup(nil, map[string]int{"DB": 1}); err != nil {
		t.Errorf("1 transfer on width-1 bus rejected: %v", err)
	}
	// Each violation, with the exact message the verifier's asm/group
	// diagnostics print.
	for _, c := range []struct {
		name  string
		slots []SlotRef
		buses map[string]int
		want  string
	}{
		{"unit used twice", []SlotRef{{Unit: "U1", Op: ir.OpAdd}, {Unit: "U1", Op: ir.OpSub}}, nil,
			"isdl: illegal grouping: unit U1 used twice"},
		{"op the unit cannot perform", []SlotRef{{Unit: "U3", Op: ir.OpSub}}, nil,
			"isdl: illegal grouping: unit U3 cannot perform SUB"},
		{"bus over width", nil, map[string]int{"DB": 2},
			"isdl: illegal grouping: bus DB carries 2 transfers, width 1"},
		{"unknown unit", []SlotRef{{Unit: "U9", Op: ir.OpAdd}}, nil,
			"isdl: illegal grouping: unknown unit U9"},
		{"unknown bus", nil, map[string]int{"ZZ": 1},
			"isdl: illegal grouping: unknown bus ZZ"},
	} {
		err := m.CheckGroup(c.slots, c.buses)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if _, ok := err.(*GroupError); !ok {
			t.Errorf("%s: error is %T, want *GroupError", c.name, err)
		}
		if err.Error() != c.want {
			t.Errorf("%s: error %q, want %q", c.name, err, c.want)
		}
	}
}

func TestExplicitConstraint(t *testing.T) {
	m := WideDSP(4)
	viol := []SlotRef{{Unit: "M1", Op: ir.OpMul}, {Unit: "M2", Op: ir.OpMul}}
	const want = "isdl: illegal grouping: violates constraint !(M1.MUL & M2.MUL)"
	if err := m.CheckGroup(viol, nil); err == nil || err.Error() != want {
		t.Errorf("constrained MUL/MUL co-issue: error %v, want %q", err, want)
	}
	// Only one of the constrained slots present: fine.
	if err := m.CheckGroup(viol[:1], nil); err != nil {
		t.Errorf("single MUL rejected: %v", err)
	}
	// M1.MUL with M2.DIV is not constrained.
	mix := []SlotRef{{Unit: "M1", Op: ir.OpMul}, {Unit: "M2", Op: ir.OpDiv}}
	if err := m.CheckGroup(mix, nil); err != nil {
		t.Errorf("unconstrained mix rejected: %v", err)
	}
}

func TestFinalizeValidation(t *testing.T) {
	m := NewMachine("empty")
	if err := m.Finalize(); err == nil {
		t.Error("machine with no units finalized")
	}

	m = NewMachine("dup")
	m.AddUnit("U1", 4, ir.OpAdd)
	m.AddUnit("U1", 4, ir.OpSub)
	if err := m.Finalize(); err == nil {
		t.Error("duplicate unit accepted")
	}

	m = NewMachine("zeroregs")
	m.AddUnit("U1", 0, ir.OpAdd)
	if err := m.Finalize(); err == nil {
		t.Error("zero-register unit accepted")
	}

	m = NewMachine("badtransfer")
	m.AddUnit("U1", 4, ir.OpAdd)
	m.AddBus("B", 1)
	m.AddTransfer(UnitLoc("U1"), UnitLoc("UX"), "B")
	if err := m.Finalize(); err == nil {
		t.Error("transfer to unknown unit accepted")
	}

	m = NewMachine("badbus")
	m.AddUnit("U1", 4, ir.OpAdd)
	m.AddUnit("U2", 4, ir.OpAdd)
	m.AddTransfer(UnitLoc("U1"), UnitLoc("U2"), "NOPE")
	if err := m.Finalize(); err == nil {
		t.Error("transfer over unknown bus accepted")
	}

	m = NewMachine("badconstraint")
	m.AddUnit("U1", 4, ir.OpAdd)
	m.AddConstraint(SlotRef{Unit: "U1", Op: ir.OpMul})
	if err := m.Finalize(); err == nil {
		t.Error("constraint on unsupported op accepted")
	}
}

func TestSupportsDAG(t *testing.T) {
	m := ExampleArch(4)
	bb := ir.NewBuilder("b")
	bb.Store("o", bb.Add(bb.Load("a"), bb.Load("b")))
	bb.Return()
	if err := m.SupportsDAG(bb.Finish()); err != nil {
		t.Errorf("ADD block rejected: %v", err)
	}
	bb2 := ir.NewBuilder("b2")
	bb2.Store("o", bb2.Op(ir.OpDiv, bb2.Load("a"), bb2.Load("b")))
	bb2.Return()
	if err := m.SupportsDAG(bb2.Finish()); err == nil {
		t.Error("DIV block accepted on machine without DIV")
	}
}

func TestCloneAndMutate(t *testing.T) {
	m := ExampleArch(4)
	c := m.Clone("Derived")
	if !c.RemoveUnit("U3") {
		t.Fatal("RemoveUnit(U3) failed")
	}
	delete(c.Unit("U1").Ops, ir.OpSub)
	c.Unit("U2").Regs.Size = 2
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Derived machine matches ArchitectureII structure.
	if c.Unit("U3") != nil || c.Unit("U1").Can(ir.OpSub) {
		t.Error("clone mutation incomplete")
	}
	// Original untouched.
	if m.Unit("U3") == nil || !m.Unit("U1").Can(ir.OpSub) || m.Unit("U2").Regs.Size != 4 {
		t.Error("Clone mutated the original")
	}
	// Transfers touching U3 removed from clone.
	for _, tr := range c.Transfers {
		if tr.From == UnitLoc("U3") || tr.To == UnitLoc("U3") {
			t.Errorf("stale transfer %s", tr)
		}
	}
	if c.RemoveUnit("U9") {
		t.Error("RemoveUnit of unknown unit returned true")
	}
}

func TestParseExampleISDL(t *testing.T) {
	m, err := Parse(ExampleArchISDL)
	if err != nil {
		t.Fatal(err)
	}
	ref := ExampleArch(4)
	if m.Name != ref.Name {
		t.Errorf("name = %s, want %s", m.Name, ref.Name)
	}
	if len(m.Units) != len(ref.Units) {
		t.Fatalf("units = %d, want %d", len(m.Units), len(ref.Units))
	}
	for i, u := range m.Units {
		ru := ref.Units[i]
		if u.Name != ru.Name || u.Regs.Size != ru.Regs.Size || len(u.Ops) != len(ru.Ops) {
			t.Errorf("unit %s differs from reference %s", u.Name, ru.Name)
		}
	}
	if len(m.Transfers) != len(ref.Transfers) {
		t.Errorf("transfers = %d, want %d", len(m.Transfers), len(ref.Transfers))
	}
}

func TestParseFullFeatures(t *testing.T) {
	src := `
machine Full
// units
unit A { regs 8 ops ADD SUB MUL MAC }
unit B { regs 8 ops ADD DIV }
memory DM
memory CM
bus X width 2
transfer A -> B via X
transfer B -> A via X
transfer DM -> A via X
transfer A -> DM via X
constraint !(A.MUL & B.DIV)
pattern A.MAC = ADD(_, MUL(_, _))
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.Bus("X").Width != 2 {
		t.Error("bus width not parsed")
	}
	if len(m.Memories) != 2 {
		t.Errorf("memories = %d, want 2", len(m.Memories))
	}
	if len(m.Constraints) != 1 || len(m.Constraints[0].Forbid) != 2 {
		t.Errorf("constraint parsing wrong: %v", m.Constraints)
	}
	if len(m.Patterns) != 1 {
		t.Fatalf("patterns = %d, want 1", len(m.Patterns))
	}
	p := m.Patterns[0]
	if p.Result != ir.OpMAC || p.Unit != "A" || p.Tree.Op != ir.OpAdd {
		t.Errorf("pattern = %v", p)
	}
	// Memory location parsed as memory, not unit.
	found := false
	for _, tr := range m.Transfers {
		if tr.From == MemLoc("DM") && tr.To == UnitLoc("A") {
			found = true
		}
	}
	if !found {
		t.Error("DM -> A transfer missing or mis-typed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                      // no machine keyword
		"machine",                               // missing name
		"machine M\nunit U1 { ops ADD }",        // missing regs
		"machine M\nunit U1 { regs 4 }junk",     // unknown keyword
		"machine M\nbus B",                      // missing width
		"machine M\nunit U1 { regs 4 ops ZZZ }", // unknown op
		"machine M\nunit U1 { regs 4 ops ADD }\nconstraint (U1.ADD)", // missing !
		"machine M\nunit U1 { regs 4 ops ADD",                        // unterminated
		"machine M\nunit U1 { regs 4 ops ADD }\ntransfer U1 -> U2 via",
		"machine M\nunit U1 { regs 4 ops MAC ADD MUL }\npattern U1.MAC = ADD(_, MUL(_))", // arity
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted invalid input:\n%s", src)
		}
	}
}

func TestPatternValidate(t *testing.T) {
	m := NewMachine("P")
	m.AddUnit("U1", 4, ir.OpAdd, ir.OpMul, ir.OpMAC)
	m.AddMemory("DM")
	m.AddBus("B", 1)
	m.ConnectAll("B")
	m.Patterns = append(m.Patterns, MACPattern("U1"))
	if err := m.Finalize(); err != nil {
		t.Fatalf("valid MAC pattern rejected: %v", err)
	}
	// Pattern on a unit that lacks the result op.
	m2 := NewMachine("P2")
	m2.AddUnit("U1", 4, ir.OpAdd, ir.OpMul)
	m2.Patterns = append(m2.Patterns, MACPattern("U1"))
	if err := m2.Finalize(); err == nil {
		t.Error("pattern with unsupported result op accepted")
	}
	// Wrong wildcard count.
	m3 := NewMachine("P3")
	m3.AddUnit("U1", 4, ir.OpAdd, ir.OpMAC)
	m3.Patterns = append(m3.Patterns, Pattern{
		Result: ir.OpMAC, Unit: "U1",
		Tree: &PatTree{Op: ir.OpAdd, Kids: []*PatTree{nil, nil}},
	})
	if err := m3.Finalize(); err == nil {
		t.Error("pattern with 2 wildcards for 3-ary MAC accepted")
	}
}

func TestMatchPattern(t *testing.T) {
	bb := ir.NewBuilder("b")
	a := bb.Load("a")
	x := bb.Load("x")
	y := bb.Load("y")
	mul := bb.Mul(x, y)
	add := bb.Add(a, mul)
	bb.Store("o", add)
	bb.Return()
	blk := bb.Finish()
	users := blk.Users()

	pat := MACPattern("U1")
	ops, absorbed, ok := MatchPattern(pat.Tree, add, users)
	if !ok {
		t.Fatal("MAC pattern did not match a + x*y")
	}
	if len(ops) != 3 {
		t.Fatalf("got %d operands, want 3", len(ops))
	}
	if ops[0] != a || ops[1] != x || ops[2] != y {
		t.Errorf("operands bound wrong: %v", ops)
	}
	if len(absorbed) != 2 {
		t.Errorf("absorbed %d nodes, want 2 (ADD and MUL)", len(absorbed))
	}

	// Multiply-used interior node must block the match.
	bb2 := ir.NewBuilder("b2")
	a2 := bb2.Load("a")
	m2 := bb2.Mul(bb2.Load("x"), bb2.Load("y"))
	add2 := bb2.Add(a2, m2)
	bb2.Store("o", add2)
	bb2.Store("keep", m2) // second use of the MUL
	bb2.Return()
	blk2 := bb2.Finish()
	var addNode *ir.Node
	for _, n := range blk2.Nodes {
		if n.Op == ir.OpAdd {
			addNode = n
		}
	}
	if _, _, ok := MatchPattern(pat.Tree, addNode, blk2.Users()); ok {
		t.Error("pattern matched despite multiply-used interior MUL")
	}
}

func TestDescribe(t *testing.T) {
	out := ExampleArch(4).Describe()
	for _, want := range []string{
		"machine ExampleVLIW", "unit U1", "ADD,COMPL,SUB",
		"memory DM", "bus DB width=1",
		"op -> units database", "MUL    -> U2,U3",
		"transfer path database", "U1 => DM(mem)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q", want)
		}
	}
	w := WideDSP(4).Describe()
	for _, want := range []string{"constraint !(M1.MUL & M2.MUL)", "pattern M1.MAC"} {
		if !strings.Contains(w, want) {
			t.Errorf("WideDSP Describe missing %q", want)
		}
	}
}

// Property: on a fully connected machine every ordered pair of distinct
// locations has exactly one minimal path of one hop.
func TestQuickFullCrossbarPaths(t *testing.T) {
	m := ExampleArch(4)
	locs := []Loc{UnitLoc("U1"), UnitLoc("U2"), UnitLoc("U3"), MemLoc("DM")}
	prop := func(i, j uint8) bool {
		a := locs[int(i)%len(locs)]
		b := locs[int(j)%len(locs)]
		ps := m.TransferPaths(a, b)
		if a == b {
			return len(ps) == 1 && len(ps[0]) == 0
		}
		return len(ps) == 1 && len(ps[0]) == 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: CheckGroup never accepts a group where two slots share a unit.
func TestQuickCheckGroupUnitExclusive(t *testing.T) {
	m := ExampleArch(4)
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpCompl}
	units := []string{"U1", "U2", "U3"}
	prop := func(u1, u2, o1, o2 uint8) bool {
		s1 := SlotRef{Unit: units[int(u1)%3], Op: ops[int(o1)%4]}
		s2 := SlotRef{Unit: units[int(u2)%3], Op: ops[int(o2)%4]}
		err := m.CheckGroup([]SlotRef{s1, s2}, nil)
		if s1.Unit == s2.Unit && err == nil {
			return false // same unit twice must be rejected
		}
		canBoth := m.Unit(s1.Unit).Can(s1.Op) && m.Unit(s2.Unit).Can(s2.Op)
		if s1.Unit != s2.Unit && canBoth && err != nil {
			return false // different units, supported ops: must be legal
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestHardwareCost(t *testing.T) {
	big := ExampleArch(4).HardwareCost()
	small := ArchitectureII(4).HardwareCost()
	if small >= big {
		t.Errorf("ArchII cost %d !< ExampleArch cost %d", small, big)
	}
	fewRegs := ExampleArch(2).HardwareCost()
	if fewRegs >= big {
		t.Errorf("2-reg cost %d !< 4-reg cost %d", fewRegs, big)
	}
	wide := ExampleArch(4)
	wide.Bus("DB").Width = 2
	if wide.HardwareCost() <= big {
		t.Error("wider bus should cost more")
	}
}

func TestSharedBanks(t *testing.T) {
	m := ClusteredVLIW(4)
	if m.BankOf("A0") != "C0" || m.BankOf("M0") != "C0" {
		t.Errorf("cluster 0 banks: %s %s", m.BankOf("A0"), m.BankOf("M0"))
	}
	if m.BankOf("A1") != "C1" {
		t.Errorf("A1 bank = %s", m.BankOf("A1"))
	}
	if got := m.Banks(); len(got) != 2 || got[0] != "C0" || got[1] != "C1" {
		t.Errorf("Banks = %v", got)
	}
	if m.BankSize("C0") != 4 || m.BankSize("nope") != 0 {
		t.Errorf("BankSize wrong")
	}
	// Same bank: zero-cost "transfer"; cross cluster: one hop on XB.
	if m.PathCost(UnitLoc("C0"), UnitLoc("C0")) != 0 {
		t.Error("intra-bank cost != 0")
	}
	if m.PathCost(UnitLoc("C0"), UnitLoc("C1")) != 1 {
		t.Error("inter-cluster cost != 1")
	}
	// Inconsistent shared sizes rejected.
	bad := NewMachine("bad")
	bad.AddUnit("X", 4, ir.OpAdd)
	bad.AddUnit("Y", 2, ir.OpMul)
	bad.Unit("X").Regs.Name = "B"
	bad.Unit("Y").Regs.Name = "B"
	if err := bad.Finalize(); err == nil {
		t.Error("inconsistent bank sizes accepted")
	}
	// ShareBank on unknown unit errors.
	if err := ClusteredVLIW(4).ShareBank("Z", 4, "NOPE"); err == nil {
		t.Error("ShareBank accepted unknown unit")
	}
}

func TestParseBankKeyword(t *testing.T) {
	src := `
machine Clustered
unit A0 { regs 4 bank C0 ops ADD SUB }
unit M0 { regs 4 bank C0 ops MUL }
memory DM
bus DB width 1
transfer DM -> C0 via DB
transfer C0 -> DM via DB
`
	m, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.BankOf("A0") != "C0" || m.BankOf("M0") != "C0" {
		t.Errorf("parsed banks: %s %s", m.BankOf("A0"), m.BankOf("M0"))
	}
	if len(m.Banks()) != 1 {
		t.Errorf("Banks = %v", m.Banks())
	}
}

func TestDualMemDSPStructure(t *testing.T) {
	m := DualMemDSP(4)
	if len(m.Memories) != 2 {
		t.Fatalf("memories = %d, want 2", len(m.Memories))
	}
	// XM reachable over BX, YM over BY, from both units' banks.
	for _, u := range []string{"ALU", "MAC"} {
		bank := UnitLoc(m.BankOf(u))
		px := m.TransferPaths(MemLoc("XM"), bank)
		py := m.TransferPaths(MemLoc("YM"), bank)
		if len(px) == 0 || px[0][0].Bus != "BX" {
			t.Errorf("%s: XM path %v", u, px)
		}
		if len(py) == 0 || py[0][0].Bus != "BY" {
			t.Errorf("%s: YM path %v", u, py)
		}
	}
	// The MAC pattern is registered.
	if len(m.Patterns) != 1 || m.Patterns[0].Result != ir.OpMAC {
		t.Errorf("patterns = %v", m.Patterns)
	}
}

func TestDescribeLatencyAndBanks(t *testing.T) {
	m := ExampleArch(4)
	m.Unit("U2").SetLatency(ir.OpMul, 3)
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	out := m.Describe()
	if !strings.Contains(out, "MUL:3") {
		t.Errorf("Describe missing latency annotation:\n%s", out)
	}
	c := ClusteredVLIW(4)
	outC := c.Describe()
	if !strings.Contains(outC, "bank=C0") {
		t.Errorf("Describe missing bank annotation:\n%s", outC)
	}
}

func TestParseLatencyErrors(t *testing.T) {
	bad := []string{
		"machine M\nunit U { regs 4 ops MUL: }",  // missing number
		"machine M\nunit U { regs 4 ops MUL:0 }", // zero latency
		"machine M\nunit U { regs 4 bank }",      // missing bank name
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted invalid latency/bank syntax:\n%s", src)
		}
	}
}
