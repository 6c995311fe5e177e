package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpMetadata(t *testing.T) {
	cases := []struct {
		op    Op
		name  string
		arity int
		comm  bool
	}{
		{OpAdd, "ADD", 2, true},
		{OpSub, "SUB", 2, false},
		{OpMul, "MUL", 2, true},
		{OpNeg, "NEG", 1, false},
		{OpCompl, "COMPL", 1, false},
		{OpConst, "CONST", 0, false},
		{OpLoad, "LOAD", 0, false},
		{OpStore, "STORE", 1, false},
		{OpMAC, "MAC", 3, false},
		{OpCmpEQ, "CMPEQ", 2, true},
		{OpCmpLT, "CMPLT", 2, false},
	}
	for _, c := range cases {
		if c.op.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", c.op, c.op.String(), c.name)
		}
		if c.op.Arity() != c.arity {
			t.Errorf("%v.Arity() = %d, want %d", c.op, c.op.Arity(), c.arity)
		}
		if c.op.Commutative() != c.comm {
			t.Errorf("%v.Commutative() = %v, want %v", c.op, c.op.Commutative(), c.comm)
		}
		if ParseOp(c.name) != c.op {
			t.Errorf("ParseOp(%q) = %v, want %v", c.name, ParseOp(c.name), c.op)
		}
	}
	if ParseOp("BOGUS") != OpInvalid {
		t.Errorf("ParseOp(BOGUS) should be OpInvalid")
	}
	if ParseOp("INVALID") != OpInvalid {
		t.Errorf("ParseOp(INVALID) should be OpInvalid")
	}
}

func TestOpClassification(t *testing.T) {
	if !OpConst.IsLeaf() || !OpLoad.IsLeaf() || OpAdd.IsLeaf() {
		t.Error("IsLeaf misclassifies")
	}
	if !OpCmpGE.IsCompare() || !OpCmpEQ.IsCompare() || OpAdd.IsCompare() {
		t.Error("IsCompare misclassifies")
	}
	if OpConst.IsComputation() || OpLoad.IsComputation() || OpStore.IsComputation() {
		t.Error("leaves/roots should not be computations")
	}
	if !OpAdd.IsComputation() || !OpMAC.IsComputation() || !OpCompl.IsComputation() {
		t.Error("ALU ops should be computations")
	}
}

func TestBuilderCSE(t *testing.T) {
	bb := NewBuilder("b")
	a := bb.Load("a")
	b := bb.Load("b")
	x := bb.Add(a, b)
	y := bb.Add(b, a) // commutative: must be shared with x
	if x != y {
		t.Errorf("commutative ADD not shared: %v vs %v", x, y)
	}
	z := bb.Add(a, b)
	if z != x {
		t.Errorf("identical ADD not shared")
	}
	if bb.Load("a") != a {
		t.Errorf("repeated load not shared")
	}
	c1, c2 := bb.Const(7), bb.Const(7)
	if c1 != c2 {
		t.Errorf("constants not shared")
	}
	s := bb.Sub(a, b)
	s2 := bb.Sub(b, a)
	if s == s2 {
		t.Errorf("non-commutative SUB wrongly shared")
	}
}

func TestBuilderStoreLoadForwarding(t *testing.T) {
	bb := NewBuilder("b")
	a := bb.Load("a")
	b := bb.Load("b")
	sum := bb.Add(a, b)
	bb.Store("t", sum)
	// Load after store must forward the stored value, not create a node.
	if got := bb.Load("t"); got != sum {
		t.Errorf("load after store = %v, want forwarded %v", got, sum)
	}
	// A store to a different location must not interfere.
	bb.Store("u", a)
	if got := bb.Load("t"); got != sum {
		t.Errorf("unrelated store clobbered forwarding")
	}
	// Overwriting t changes the forwarded value.
	bb.Store("t", a)
	if got := bb.Load("t"); got != a {
		t.Errorf("load after second store = %v, want %v", got, a)
	}
}

// TestCopyTerm: CopyTerm copies every terminator kind, sets Cond only
// for a branch, and shares the source's Succs slice (passes that
// retarget an edge, such as jump threading, assign a fresh slice).
func TestCopyTerm(t *testing.T) {
	cases := []struct {
		name  string
		term  TermKind
		succs []string
	}{
		{"branch", TermBranch, []string{"then", "else"}},
		{"jump", TermJump, []string{"next"}},
		{"return", TermReturn, nil},
		{"fallthrough", TermNone, []string{"next"}},
		{"end", TermNone, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := NewBlock("src")
			src.Term = c.term
			src.Succs = append([]string(nil), c.succs...)
			bb := NewBuilder("dst")
			cond := bb.Load("c")
			bb.CopyTerm(src, cond)
			dst := bb.Block
			if dst.Term != c.term {
				t.Fatalf("Term = %v, want %v", dst.Term, c.term)
			}
			var wantCond *Node
			if c.term == TermBranch {
				wantCond = cond
			}
			if dst.Cond != wantCond {
				t.Fatalf("Cond = %v, want %v", dst.Cond, wantCond)
			}
			if strings.Join(dst.Succs, ",") != strings.Join(c.succs, ",") {
				t.Fatalf("Succs = %v, want %v", dst.Succs, c.succs)
			}
			if err := bb.Finish().Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if len(src.Succs) > 0 && &dst.Succs[0] != &src.Succs[0] {
				t.Fatal("Succs copied, want the source's slice shared")
			}
		})
	}
}

func TestBuilderFinishRemovesDead(t *testing.T) {
	bb := NewBuilder("b")
	a := bb.Load("a")
	b := bb.Load("b")
	bb.Mul(a, b) // dead: never stored
	live := bb.Add(a, b)
	bb.Store("out", live)
	bb.Return()
	blk := bb.Finish()
	for _, n := range blk.Nodes {
		if n.Op == OpMul {
			t.Errorf("dead MUL survived Finish")
		}
	}
	if err := blk.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// IDs must be dense after renumbering.
	for i, n := range blk.Nodes {
		if n.ID != i {
			t.Errorf("node %d has ID %d after renumber", i, n.ID)
		}
	}
}

func TestVerifyCatchesBadArity(t *testing.T) {
	b := NewBlock("b")
	n := b.NewNode(OpAdd) // missing args
	_ = n
	if err := b.Verify(); err == nil {
		t.Error("Verify accepted ADD with 0 args")
	}
}

func TestVerifyCatchesForeignOperand(t *testing.T) {
	b1 := NewBlock("b1")
	x := b1.NewLoad("x")
	b2 := NewBlock("b2")
	y := b2.NewLoad("y")
	b2.NewNode(OpAdd, y, x) // x belongs to b1
	if err := b2.Verify(); err == nil {
		t.Error("Verify accepted operand from another block")
	}
}

func TestVerifyTerminators(t *testing.T) {
	b := NewBlock("b")
	c := b.NewLoad("c")
	b.Term = TermBranch
	b.Cond = c
	b.Succs = []string{"only-one"}
	if err := b.Verify(); err == nil {
		t.Error("Verify accepted branch with one successor")
	}
	b.Succs = []string{"t", "f"}
	if err := b.Verify(); err != nil {
		t.Errorf("Verify rejected valid branch: %v", err)
	}
	b.Term = TermReturn
	b.Succs = []string{"t"}
	if err := b.Verify(); err == nil {
		t.Error("Verify accepted return with successors")
	}
}

func TestFuncVerify(t *testing.T) {
	bb := NewBuilder("entry")
	bb.Store("x", bb.Const(1))
	bb.Jump("missing")
	f := &Func{Name: "f", Blocks: []*Block{bb.Finish()}}
	if err := f.Verify(); err == nil {
		t.Error("Func.Verify accepted unknown successor")
	}
}

func TestEvalOpSemantics(t *testing.T) {
	cases := []struct {
		op   Op
		args []int64
		want int64
	}{
		{OpAdd, []int64{3, 4}, 7},
		{OpSub, []int64{3, 4}, -1},
		{OpMul, []int64{3, 4}, 12},
		{OpDiv, []int64{9, 2}, 4},
		{OpMod, []int64{9, 2}, 1},
		{OpNeg, []int64{5}, -5},
		{OpCompl, []int64{0}, -1},
		{OpAnd, []int64{6, 3}, 2},
		{OpOr, []int64{6, 3}, 7},
		{OpXor, []int64{6, 3}, 5},
		{OpShl, []int64{1, 4}, 16},
		{OpShr, []int64{16, 4}, 1},
		{OpCmpEQ, []int64{2, 2}, 1},
		{OpCmpNE, []int64{2, 2}, 0},
		{OpCmpLT, []int64{1, 2}, 1},
		{OpCmpLE, []int64{2, 2}, 1},
		{OpCmpGT, []int64{1, 2}, 0},
		{OpCmpGE, []int64{2, 3}, 0},
		{OpMAC, []int64{10, 3, 4}, 22},
		{OpAddS, []int64{6, 2, 2}, 2},
	}
	for _, c := range cases {
		got, err := EvalOp(c.op, c.args...)
		if err != nil {
			t.Errorf("EvalOp(%v, %v): %v", c.op, c.args, err)
			continue
		}
		if got != c.want {
			t.Errorf("EvalOp(%v, %v) = %d, want %d", c.op, c.args, got, c.want)
		}
	}
	if _, err := EvalOp(OpDiv, 1, 0); err == nil {
		t.Error("EvalOp(DIV, 1, 0) should fail")
	}
	if _, err := EvalOp(OpMod, 1, 0); err == nil {
		t.Error("EvalOp(MOD, 1, 0) should fail")
	}
	if _, err := EvalOp(OpConst); err == nil {
		t.Error("EvalOp(CONST) should fail")
	}
}

func TestEvalBlock(t *testing.T) {
	bb := NewBuilder("b")
	a := bb.Load("a")
	b := bb.Load("b")
	bb.Store("sum", bb.Add(a, b))
	bb.Store("prod", bb.Mul(a, b))
	bb.Return()
	blk := bb.Finish()
	mem := map[string]int64{"a": 6, "b": 7}
	next, err := EvalBlock(blk, mem)
	if err != nil {
		t.Fatal(err)
	}
	if next != "" {
		t.Errorf("next = %q, want empty", next)
	}
	if mem["sum"] != 13 || mem["prod"] != 42 {
		t.Errorf("mem = %v, want sum=13 prod=42", mem)
	}
}

func TestEvalBlockBranch(t *testing.T) {
	bb := NewBuilder("b")
	c := bb.Op(OpCmpLT, bb.Load("i"), bb.Const(10))
	bb.Branch(c, "body", "exit")
	blk := bb.Finish()

	mem := map[string]int64{"i": 5}
	next, err := EvalBlock(blk, mem)
	if err != nil || next != "body" {
		t.Errorf("i=5: next=%q err=%v, want body", next, err)
	}
	mem["i"] = 15
	next, err = EvalBlock(blk, mem)
	if err != nil || next != "exit" {
		t.Errorf("i=15: next=%q err=%v, want exit", next, err)
	}
}

func TestEvalFuncLoop(t *testing.T) {
	// sum = 0; for i = 0; i < n; i++ { sum += i }
	entry := NewBuilder("entry")
	entry.Store("sum", entry.Const(0))
	entry.Store("i", entry.Const(0))
	entry.Jump("head")

	head := NewBuilder("head")
	head.Branch(head.Op(OpCmpLT, head.Load("i"), head.Load("n")), "body", "exit")

	body := NewBuilder("body")
	body.Store("sum", body.Add(body.Load("sum"), body.Load("i")))
	body.Store("i", body.Add(body.Load("i"), body.Const(1)))
	body.Jump("head")

	exit := NewBuilder("exit")
	exit.Return()

	f := &Func{Name: "loop", Blocks: []*Block{entry.Finish(), head.Finish(), body.Finish(), exit.Finish()}}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	mem := map[string]int64{"n": 10}
	if err := EvalFunc(f, mem, 0); err != nil {
		t.Fatal(err)
	}
	if mem["sum"] != 45 {
		t.Errorf("sum = %d, want 45", mem["sum"])
	}
}

func TestEvalFuncInfiniteLoopGuard(t *testing.T) {
	b := NewBuilder("spin")
	b.Jump("spin")
	f := &Func{Name: "spin", Blocks: []*Block{b.Finish()}}
	err := EvalFunc(f, map[string]int64{}, 100)
	if err == nil {
		t.Fatal("EvalFunc should report step budget exhaustion")
	}
}

func TestLevels(t *testing.T) {
	bb := NewBuilder("b")
	a := bb.Load("a")
	b := bb.Load("b")
	s := bb.Add(a, b)
	m := bb.Mul(s, a)
	bb.Store("out", m)
	bb.Return()
	blk := bb.Finish()
	top, bot := blk.Levels()

	find := func(op Op) *Node {
		for _, n := range blk.Nodes {
			if n.Op == op {
				return n
			}
		}
		t.Fatalf("no %v node", op)
		return nil
	}
	add, mul, st := find(OpAdd), find(OpMul), find(OpStore)
	if bot[add] != 1 || bot[mul] != 2 || bot[st] != 3 {
		t.Errorf("bottom levels: add=%d mul=%d st=%d, want 1 2 3", bot[add], bot[mul], bot[st])
	}
	if top[st] != 0 || top[mul] != 1 || top[add] != 2 {
		t.Errorf("top levels: st=%d mul=%d add=%d, want 0 1 2", top[st], top[mul], top[add])
	}
	// Load a is used by both ADD (top 2) and MUL (top 1): top = 3.
	if top[a] != 3 {
		t.Errorf("top[a] = %d, want 3", top[a])
	}
}

func TestRootsAndVars(t *testing.T) {
	bb := NewBuilder("b")
	x := bb.Load("x")
	bb.Store("y", x)
	cond := bb.Op(OpCmpGT, x, bb.Const(0))
	bb.Branch(cond, "t", "f")
	blk := bb.Finish()
	roots := blk.Roots()
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2 (store + cond)", len(roots))
	}
	vars := blk.Vars()
	if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Errorf("Vars = %v, want [x y]", vars)
	}
}

func TestDOTSmoke(t *testing.T) {
	bb := NewBuilder("b")
	bb.Store("o", bb.Add(bb.Load("a"), bb.Const(3)))
	bb.Return()
	dot := bb.Finish().DOT()
	for _, want := range []string{"digraph", "ADD", "ST o", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func TestStringFormats(t *testing.T) {
	bb := NewBuilder("blk")
	a := bb.Load("a")
	c := bb.Const(5)
	s := bb.Add(a, c)
	bb.Store("r", s)
	bb.Return()
	f := &Func{Name: "f", Blocks: []*Block{bb.Finish()}}
	out := f.String()
	for _, want := range []string{"func f", "block blk", "LOAD(a)", "CONST(5)", "ADD", "STORE(r)", "return"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q in:\n%s", want, out)
		}
	}
	if TermBranch.String() != "branch" || TermJump.String() != "jump" ||
		TermNone.String() != "fallthrough" || TermReturn.String() != "return" {
		t.Error("TermKind.String wrong")
	}
}

// Property: evaluation of a commutative op is order independent, and the
// builder shares commuted nodes.
func TestQuickCommutativity(t *testing.T) {
	prop := func(a, b int64) bool {
		for _, op := range []Op{OpAdd, OpMul, OpAnd, OpOr, OpXor} {
			x, err1 := EvalOp(op, a, b)
			y, err2 := EvalOp(op, b, a)
			if err1 != nil || err2 != nil || x != y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: a random expression built through the Builder evaluates to the
// same value as direct computation.
func TestQuickBuilderEvalAgreement(t *testing.T) {
	prop := func(a, b, c int64, sel uint8) bool {
		ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor}
		op1 := ops[int(sel)%len(ops)]
		op2 := ops[int(sel/8)%len(ops)]
		bb := NewBuilder("p")
		na := bb.Load("a")
		nb := bb.Load("b")
		nc := bb.Load("c")
		r := bb.Op(op2, bb.Op(op1, na, nb), nc)
		bb.Store("r", r)
		bb.Return()
		blk := bb.Finish()
		mem := map[string]int64{"a": a, "b": b, "c": c}
		if _, err := EvalBlock(blk, mem); err != nil {
			return false
		}
		v1, _ := EvalOp(op1, a, b)
		want, _ := EvalOp(op2, v1, c)
		return mem["r"] == want
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Levels are consistent — an edge user->operand implies
// bottom(user) > bottom(operand) and top(operand) > top(user).
func TestQuickLevelsMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		blk := randomBlock(seed, 12)
		top, bot := blk.Levels()
		for _, n := range blk.Nodes {
			for _, a := range n.Args {
				if bot[n] <= bot[a] || top[a] <= top[n] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// randomBlock builds a deterministic pseudo-random block for property tests.
func randomBlock(seed int64, nOps int) *Block {
	bb := NewBuilder("rand")
	state := uint64(seed)*2654435761 + 12345
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	avail := []*Node{bb.Load("a"), bb.Load("b"), bb.Const(int64(next(100)))}
	ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpXor}
	for i := 0; i < nOps; i++ {
		op := ops[next(len(ops))]
		x := avail[next(len(avail))]
		y := avail[next(len(avail))]
		avail = append(avail, bb.Op(op, x, y))
	}
	bb.Store("out", avail[len(avail)-1])
	bb.Return()
	return bb.Finish()
}

func TestFuncDOT(t *testing.T) {
	entry := NewBuilder("entry")
	c := entry.Op(OpCmpGT, entry.Load("x"), entry.Const(0))
	entry.Branch(c, "t", "f")
	tb := NewBuilder("t")
	tb.Store("r", tb.Const(1))
	tb.Jump("exit")
	fb := NewBuilder("f")
	fb.Store("r", fb.Const(2))
	fb.Jump("exit")
	ex := NewBuilder("exit")
	ex.Return()
	f := &Func{Name: "g", Blocks: []*Block{entry.Finish(), tb.Finish(), fb.Finish(), ex.Finish()}}
	dot := f.DOT()
	for _, want := range []string{"digraph", "cluster_0", "cluster_3", "CMPGT", "dashed", "ST r"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Func.DOT missing %q", want)
		}
	}
}
