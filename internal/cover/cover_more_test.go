package cover

import (
	"strings"
	"testing"

	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sndag"
)

// wideBlock builds independent ADD trees that crowd registers.
func wideBlock(n int) *ir.Block {
	bb := ir.NewBuilder("wide")
	for i := 0; i < n; i++ {
		a := bb.Load(varName("a", i))
		b := bb.Load(varName("b", i))
		bb.Store(varName("o", i), bb.Add(a, b))
	}
	bb.Return()
	return bb.Finish()
}

func varName(p string, i int) string {
	return p + string(rune('0'+i))
}

func TestListScheduleValid(t *testing.T) {
	blk := wideBlock(4)
	for _, regs := range []int{2, 4} {
		m := isdl.ExampleArch(regs)
		d, err := sndag.Build(blk, m)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		assigns := exploreAssignments(d, opts)
		sol, err := ListSchedule(d, assigns[0], opts)
		if err != nil {
			t.Fatalf("regs=%d: %v", regs, err)
		}
		if err := sol.Verify(); err != nil {
			t.Fatalf("regs=%d: %v\n%s", regs, err, sol)
		}
	}
}

func TestSerialFallbackDirect(t *testing.T) {
	// The serial fallback must produce valid code for any assignment.
	bb := ir.NewBuilder("serial")
	a := bb.Load("a")
	b := bb.Load("b")
	s1 := bb.Add(a, b)
	s2 := bb.Mul(s1, a)
	bb.Store("o", bb.Sub(s2, b))
	bb.Store("p", bb.Const(7))
	bb.Store("q", bb.Load("z"))
	cond := bb.Op(ir.OpCmpGT, s2, bb.Const(0))
	bb.Branch(cond, "t", "f")
	blk := bb.Finish()

	m := isdl.ExampleArchFull(2)
	d, err := sndag.Build(blk, m)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	assigns := exploreAssignments(d, opts)
	sol, err := serialFallback(d, assigns[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Verify(); err != nil {
		t.Fatalf("serial fallback invalid: %v\n%s", err, sol)
	}
	// One node per instruction.
	for i, instr := range sol.Instrs {
		if len(instr) != 1 {
			t.Errorf("serial instruction %d has %d nodes", i, len(instr))
		}
	}
	if sol.CondHolder() == nil {
		t.Error("serial fallback lost the branch condition")
	}
}

func TestSerialFallbackSnapshotsClobberedVars(t *testing.T) {
	// acc is loaded and stored: the serial fallback must snapshot the
	// initial value so the second use does not read the updated memory.
	bb := ir.NewBuilder("snap")
	acc := bb.Load("acc")
	bb.Store("acc", bb.Add(acc, bb.Const(1)))
	bb.Store("twice", bb.Add(acc, acc))
	bb.Return()
	blk := bb.Finish()

	m := isdl.SingleIssueDSP(2)
	d, err := sndag.Build(blk, m)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	assigns := exploreAssignments(d, opts)
	sol, err := serialFallback(d, assigns[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Verify(); err != nil {
		t.Fatal(err)
	}
	snap := false
	for _, instr := range sol.Instrs {
		for _, n := range instr {
			if n.Kind == StoreNode && strings.HasPrefix(n.Var, "$t") {
				snap = true
			}
		}
	}
	if !snap {
		t.Error("no snapshot temp emitted for clobbered variable")
	}
}

func TestSolutionCloneIsDeep(t *testing.T) {
	res, err := CoverBlock(fig2Block(), isdl.ExampleArch(4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Best
	c := orig.Clone()
	if err := c.Verify(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	// Mutating the clone's structure must not affect the original.
	c.Instrs = c.Instrs[:len(c.Instrs)-1]
	for _, instr := range c.Instrs {
		for _, n := range instr {
			n.Preds = nil
			n.Succs = nil
		}
	}
	if err := orig.Verify(); err != nil {
		t.Fatalf("original corrupted by clone mutation: %v", err)
	}
	if orig.Cost() == c.Cost() {
		t.Error("clone truncation did not change clone cost")
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	mk := func() *Solution {
		res, err := CoverBlock(fig2Block(), isdl.ExampleArch(4), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res.Best.Clone()
	}

	// 1. Reversed dependence order.
	s := mk()
	s.Instrs[0], s.Instrs[len(s.Instrs)-1] = s.Instrs[len(s.Instrs)-1], s.Instrs[0]
	if err := s.Verify(); err == nil {
		t.Error("Verify accepted reversed schedule")
	}

	// 2. Two ops on one unit in one instruction.
	s = mk()
	var ops []*SNode
	for _, instr := range s.Instrs {
		for _, n := range instr {
			if n.Kind == OpNode {
				ops = append(ops, n)
			}
		}
	}
	if len(ops) >= 2 {
		// Force both into the first op's instruction and same unit.
		ops[1].Unit = ops[0].Unit
		merged := false
		for i, instr := range s.Instrs {
			for j, n := range instr {
				if n == ops[1] {
					s.Instrs[i] = append(instr[:j], instr[j+1:]...)
					merged = true
					break
				}
			}
			if merged {
				break
			}
		}
		for i, instr := range s.Instrs {
			for _, n := range instr {
				if n == ops[0] {
					s.Instrs[i] = append(instr, ops[1])
				}
			}
		}
		if err := s.Verify(); err == nil {
			t.Error("Verify accepted double-issue on one unit")
		}
	}

	// 3. Missing node (dangling dependence).
	s = mk()
	s.Instrs = s.Instrs[1:]
	if err := s.Verify(); err == nil {
		t.Error("Verify accepted schedule with missing producer")
	}
}

// TestVerifyRejectsUnitTwice reaches Verify's own unit-exclusivity
// check: synthetic CONST materializations add no constraint slot, so
// legalGroup accepts two of them on one unit and only the scan of the
// instruction's earlier op nodes rejects the pair.
func TestVerifyRejectsUnitTwice(t *testing.T) {
	m := isdl.ExampleArch(4)
	a := &SNode{ID: 0, Kind: OpNode, Unit: "U1", Bank: "U1", Op: ir.OpConst}
	b := &SNode{ID: 1, Kind: OpNode, Unit: "U2", Bank: "U2", Op: ir.OpConst}
	c := &SNode{ID: 2, Kind: OpNode, Unit: "U1", Bank: "U1", Op: ir.OpConst}
	s := &Solution{Machine: m, Instrs: [][]*SNode{{a, b}, {a, b, c}}}
	if err := s.Verify(); err == nil || err.Error() != "instr 1 uses unit U1 twice" {
		t.Fatalf("Verify = %v, want instr 1 uses unit U1 twice", err)
	}
}

func TestBusWidthRespected(t *testing.T) {
	// Two transfers per instruction allowed on a 2-wide bus, never three.
	m := isdl.ExampleArch(4).Clone("Wide2")
	m.Buses[0].Width = 2
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	blk := wideBlock(5)
	res, err := CoverBlock(blk, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Verify(); err != nil {
		t.Fatal(err)
	}
	sawTwo := false
	for _, instr := range res.Best.Instrs {
		transfers := 0
		for _, n := range instr {
			if n.IsTransfer() {
				transfers++
			}
		}
		if transfers > 2 {
			t.Errorf("instruction carries %d transfers on 2-wide bus", transfers)
		}
		if transfers == 2 {
			sawTwo = true
		}
	}
	if !sawTwo {
		t.Error("2-wide bus never used for two transfers (suspicious)")
	}
	// The wide bus must beat the narrow bus on this load-heavy block.
	narrow, err := CoverBlock(blk, isdl.ExampleArch(4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost() >= narrow.Best.Cost() {
		t.Errorf("2-wide bus cost %d !< 1-wide cost %d", res.Best.Cost(), narrow.Best.Cost())
	}
}

func TestMultiHopTransferCovering(t *testing.T) {
	// A chain machine where U1 results must hop through U2 to reach U3.
	m := isdl.NewMachine("Chain3")
	m.AddUnit("U1", 4, ir.OpAdd)
	m.AddUnit("U2", 4, ir.OpSub)
	m.AddUnit("U3", 4, ir.OpMul)
	m.AddMemory("DM")
	m.AddBus("B1", 1)
	m.AddBus("B2", 1)
	m.AddTransfer(isdl.MemLoc("DM"), isdl.UnitLoc("U1"), "B1")
	m.AddTransfer(isdl.UnitLoc("U1"), isdl.UnitLoc("U2"), "B1")
	m.AddTransfer(isdl.UnitLoc("U2"), isdl.UnitLoc("U3"), "B2")
	m.AddTransfer(isdl.UnitLoc("U3"), isdl.MemLoc("DM"), "B2")
	m.AddTransfer(isdl.MemLoc("DM"), isdl.UnitLoc("U2"), "B1")
	m.AddTransfer(isdl.MemLoc("DM"), isdl.UnitLoc("U3"), "B2")
	if err := m.Finalize(); err != nil {
		t.Fatal(err)
	}
	bb := ir.NewBuilder("hop")
	sum := bb.Add(bb.Load("a"), bb.Load("b")) // U1 only
	prod := bb.Mul(sum, bb.Load("c"))         // U3 only: needs U1->U2->U3
	bb.Store("o", prod)
	bb.Return()
	res, err := CoverBlock(bb.Finish(), m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Verify(); err != nil {
		t.Fatal(err)
	}
	// The solution must contain a U1->U2 and a U2->U3 move for the sum.
	saw12, saw23 := false, false
	for _, n := range res.Best.Nodes() {
		if n.Kind == MoveNode {
			if n.Step.From == isdl.UnitLoc("U1") && n.Step.To == isdl.UnitLoc("U2") {
				saw12 = true
			}
			if n.Step.From == isdl.UnitLoc("U2") && n.Step.To == isdl.UnitLoc("U3") {
				saw23 = true
			}
		}
	}
	if !saw12 || !saw23 {
		t.Errorf("multi-hop chain missing: U1->U2 %v, U2->U3 %v\n%s", saw12, saw23, res.Best)
	}
}

func TestConstraintSplitsCliques(t *testing.T) {
	// Two MULs that would co-issue are separated by the WideDSP
	// constraint !(M1.MUL & M2.MUL).
	m := isdl.WideDSP(8)
	bb := ir.NewBuilder("c")
	p1 := bb.Mul(bb.Load("a"), bb.Load("b"))
	p2 := bb.Mul(bb.Load("c"), bb.Load("d"))
	bb.Store("x", p1)
	bb.Store("y", p2)
	bb.Return()
	res, err := CoverBlock(bb.Finish(), m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, instr := range res.Best.Instrs {
		muls := map[string]bool{}
		for _, n := range instr {
			if n.Kind == OpNode && n.Op == ir.OpMul {
				muls[n.Unit] = true
			}
		}
		if muls["M1"] && muls["M2"] {
			t.Errorf("instr %d co-issues M1.MUL and M2.MUL despite constraint", i)
		}
	}
}

func TestEmptyBlock(t *testing.T) {
	bb := ir.NewBuilder("empty")
	bb.Return()
	res, err := CoverBlock(bb.Finish(), isdl.ExampleArch(4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost() != 0 {
		t.Errorf("empty block costs %d instructions", res.Best.Cost())
	}
}

func TestBranchOnConstant(t *testing.T) {
	bb := ir.NewBuilder("bc")
	bb.Store("x", bb.Add(bb.Load("a"), bb.Load("b")))
	bb.Branch(bb.Const(1), "t", "f")
	res, err := CoverBlock(bb.Finish(), isdl.ExampleArch(4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Verify(); err != nil {
		t.Fatal(err)
	}
	if res.Best.CondHolder() != nil {
		t.Error("constant condition should not pin a register")
	}
}

func TestVarPlacementDualMemory(t *testing.T) {
	// A 4-tap FIR with x[] in XM and c[] in YM must beat the all-in-XM
	// placement: the two operand loads of each tap share an instruction.
	blk := firBlock(4)

	m := isdl.DualMemDSP(4)
	split := DefaultOptions()
	split.VarPlacement = map[string]string{}
	for i := 0; i < 4; i++ {
		split.VarPlacement[varName("x", i)] = "XM"
		split.VarPlacement[varName("c", i)] = "YM"
	}
	resSplit, err := CoverBlock(blk, m, split)
	if err != nil {
		t.Fatal(err)
	}
	if err := resSplit.Best.Verify(); err != nil {
		t.Fatal(err)
	}

	resOne, err := CoverBlock(blk, m, DefaultOptions()) // everything in XM
	if err != nil {
		t.Fatal(err)
	}
	if resSplit.Best.Cost() >= resOne.Best.Cost() {
		t.Errorf("X/Y split cost %d !< single-bank cost %d\nsplit:\n%s\nsingle:\n%s",
			resSplit.Best.Cost(), resOne.Best.Cost(), resSplit.Best, resOne.Best)
	}
	// At least one instruction carries a BX and a BY load together.
	dual := false
	for _, instr := range resSplit.Best.Instrs {
		buses := map[string]bool{}
		for _, n := range instr {
			if n.Kind == LoadNode {
				buses[n.Step.Bus] = true
			}
		}
		if buses["BX"] && buses["BY"] {
			dual = true
		}
	}
	if !dual {
		t.Errorf("no instruction pairs an XM load with a YM load\n%s", resSplit.Best)
	}
}

func TestVarPlacementUnknownMemory(t *testing.T) {
	bb := ir.NewBuilder("b")
	bb.Store("o", bb.Add(bb.Load("a"), bb.Load("b")))
	bb.Return()
	opts := DefaultOptions()
	opts.VarPlacement = map[string]string{"a": "NOPE"}
	if _, err := CoverBlock(bb.Finish(), isdl.ExampleArch(4), opts); err == nil {
		t.Error("placement in unknown memory accepted")
	}
}

func TestVarPlacementStores(t *testing.T) {
	// Stores honor placement too: y placed in YM must leave on BY.
	bb := ir.NewBuilder("st")
	bb.Store("y", bb.Add(bb.Load("a"), bb.Load("b")))
	bb.Return()
	m := isdl.DualMemDSP(4)
	opts := DefaultOptions()
	opts.VarPlacement = map[string]string{"y": "YM", "a": "XM", "b": "XM"}
	res, err := CoverBlock(bb.Finish(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range res.Best.Nodes() {
		if n.Kind == StoreNode && n.Var == "y" {
			if n.Step.Bus != "BY" || n.Step.To != isdl.MemLoc("YM") {
				t.Errorf("store of y uses %v via %s, want YM via BY", n.Step.To, n.Step.Bus)
			}
			found = true
		}
	}
	if !found {
		t.Error("no store of y found")
	}
}

func TestClusteredSharedBankNoTransfer(t *testing.T) {
	// A0 and M0 share bank C0: (a+b)*c with ADD on A0 and MUL on M0 must
	// need NO register-to-register move.
	m := isdl.ClusteredVLIW(4)
	bb := ir.NewBuilder("cl")
	bb.Store("o", bb.Mul(bb.Add(bb.Load("a"), bb.Load("b")), bb.Load("c")))
	bb.Return()
	blk := bb.Finish()
	res, err := CoverBlock(blk, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, res.Best)
	}
	units := map[string]bool{}
	for _, n := range res.Best.Nodes() {
		if n.Kind == MoveNode {
			t.Errorf("unexpected inter-bank move %s (values should share C0)\n%s", n, res.Best)
		}
		if n.Kind == OpNode {
			units[n.Unit] = true
		}
	}
	// Both ops should have been placed in one cluster (the covering
	// exploits the shared bank); either cluster is fine.
	if units["A0"] && units["M1"] || units["A1"] && units["M0"] {
		t.Errorf("ops split across clusters: %v\n%s", units, res.Best)
	}
}

func TestClusteredCrossBankMove(t *testing.T) {
	// Force cross-cluster flow: COMPL exists only on A1 (cluster 1), MUL
	// only on M0/M1. A COMPL feeding a MUL placed on M0 needs an XB move;
	// on M1 it does not. The covering should prefer M1.
	m := isdl.ClusteredVLIW(4)
	bb := ir.NewBuilder("x")
	c := bb.Op(ir.OpCompl, bb.Load("a"))
	bb.Store("o", bb.Mul(c, bb.Load("b")))
	bb.Return()
	res, err := CoverBlock(bb.Finish(), m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Verify(); err != nil {
		t.Fatal(err)
	}
	for _, n := range res.Best.Nodes() {
		if n.Kind == OpNode && n.Op == ir.OpMul && n.Unit != "M1" {
			t.Errorf("MUL placed on %s; M1 shares the COMPL's bank\n%s", n.Unit, res.Best)
		}
		if n.Kind == MoveNode && n.Step.Bus == "XB" {
			t.Errorf("unnecessary inter-cluster move\n%s", res.Best)
		}
	}
}

func TestClusteredPressureIsPerBank(t *testing.T) {
	// Two units sharing a 2-register bank must respect the SHARED limit:
	// pressure from both units counts against one bank.
	m := isdl.ClusteredVLIW(2)
	bb := ir.NewBuilder("p")
	a := bb.Load("a")
	b := bb.Load("b")
	c := bb.Load("c")
	d := bb.Load("d")
	s1 := bb.Add(a, b)
	p1 := bb.Mul(c, d)
	bb.Store("o", bb.Sub(s1, p1))
	bb.Return()
	res, err := CoverBlock(bb.Finish(), m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Verify(); err != nil {
		t.Fatalf("shared-bank pressure violated: %v\n%s", err, res.Best)
	}
}
