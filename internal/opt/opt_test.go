package opt

import (
	"testing"
	"testing/quick"

	"aviv/internal/ir"
	"aviv/internal/lang"
)

func lower(t *testing.T, src string) *ir.Func {
	t.Helper()
	p, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f, err := lang.Lower(p, "main")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func countOps(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, nd := range b.Nodes {
			if nd.Op == op {
				n++
			}
		}
	}
	return n
}

func totalNodes(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Nodes)
	}
	return n
}

func TestConstantFolding(t *testing.T) {
	f := Optimize(lower(t, `x = 2 + 3 * 4;`))
	if got := countOps(f, ir.OpAdd) + countOps(f, ir.OpMul); got != 0 {
		t.Errorf("arithmetic survived folding: %d ops\n%s", got, f)
	}
	b := f.Blocks[0]
	var stored *ir.Node
	for _, n := range b.Nodes {
		if n.Op == ir.OpStore {
			stored = n.Args[0]
		}
	}
	if stored == nil || stored.Op != ir.OpConst || stored.Const != 14 {
		t.Errorf("x not folded to 14: %v", stored)
	}
}

func TestAlgebraicIdentities(t *testing.T) {
	cases := []struct {
		src       string
		op        ir.Op
		surviveOK int
	}{
		{`y = x + 0;`, ir.OpAdd, 0},
		{`y = 0 + x;`, ir.OpAdd, 0},
		{`y = x - 0;`, ir.OpSub, 0},
		{`y = x - x;`, ir.OpSub, 0},
		{`y = x * 1;`, ir.OpMul, 0},
		{`y = x * 0;`, ir.OpMul, 0},
		{`y = x / 1;`, ir.OpDiv, 0},
		{`y = x & x;`, ir.OpAnd, 0},
		{`y = x | 0;`, ir.OpOr, 0},
		{`y = x ^ x;`, ir.OpXor, 0},
		{`y = x << 0;`, ir.OpShl, 0},
		{`y = x == x;`, ir.OpCmpEQ, 0},
		{`y = x < x;`, ir.OpCmpLT, 0},
		{`y = -(-x);`, ir.OpNeg, 0},
		{`y = ~(~x);`, ir.OpCompl, 0},
	}
	for _, c := range cases {
		f := Optimize(lower(t, c.src))
		if got := countOps(f, c.op); got > c.surviveOK {
			t.Errorf("%s: %d %v ops survived", c.src, got, c.op)
		}
	}
}

func TestDivByZeroNotFolded(t *testing.T) {
	f := Optimize(lower(t, `y = 1 / 0;`))
	if countOps(f, ir.OpDiv) != 1 {
		t.Error("division by zero was folded away")
	}
}

func TestDeadStoreElimination(t *testing.T) {
	f := Optimize(lower(t, `x = 1; x = 2;`))
	if got := countOps(f, ir.OpStore); got != 1 {
		t.Errorf("%d stores survived, want 1", got)
	}
	// An intervening load keeps both stores.
	f2 := Optimize(lower(t, `x = a; y = x + 0; x = 2;`))
	// After store-load forwarding the load of x disappears, so the first
	// store may legitimately die; check semantics instead.
	mem := map[string]int64{"a": 9}
	if err := ir.EvalFunc(f2, mem, 0); err != nil {
		t.Fatal(err)
	}
	if mem["x"] != 2 || mem["y"] != 9 {
		t.Errorf("mem = %v", mem)
	}
}

func TestBranchFolding(t *testing.T) {
	f := Optimize(lower(t, `
		if (1) { x = 10; } else { x = 20; }
		y = x;
	`))
	for _, b := range f.Blocks {
		if b.Term == ir.TermBranch {
			t.Errorf("constant branch survived in %s", b.Name)
		}
	}
	mem := map[string]int64{}
	if err := ir.EvalFunc(f, mem, 0); err != nil {
		t.Fatal(err)
	}
	if mem["x"] != 10 || mem["y"] != 10 {
		t.Errorf("mem = %v", mem)
	}
	// The dead arm must be unreachable-removed.
	for _, b := range f.Blocks {
		for _, n := range b.Nodes {
			if n.Op == ir.OpConst && n.Const == 20 {
				t.Error("dead else-arm survived")
			}
		}
	}
}

func TestCSEAcrossStatements(t *testing.T) {
	f := Optimize(lower(t, `
		p = (a + b) * c;
		q = (a + b) * c;
	`))
	if got := countOps(f, ir.OpAdd); got != 1 {
		t.Errorf("%d ADDs, want 1 (CSE)", got)
	}
	if got := countOps(f, ir.OpMul); got != 1 {
		t.Errorf("%d MULs, want 1 (CSE)", got)
	}
}

func TestOptimizeShrinksOrKeeps(t *testing.T) {
	srcs := []string{
		`x = a * (b + 0) + (c - c);`,
		`s = 0; for (i = 0; i < 4; i = i + 1) { s = s + i; }`,
		`if (a > 0) { r = a; } else { r = -a; }`,
	}
	for _, src := range srcs {
		f := lower(t, src)
		o := Optimize(f)
		if totalNodes(o) > totalNodes(f) {
			t.Errorf("%s: optimize grew IR %d -> %d", src, totalNodes(f), totalNodes(o))
		}
		if err := o.Verify(); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

// Property: optimization preserves program semantics on random inputs.
func TestQuickOptimizePreservesSemantics(t *testing.T) {
	src := `
		t1 = a + b * 2;
		t2 = (a - a) + t1;
		big = 0;
		if (t2 > 10 && b != 0) {
			big = t1 / b;
		} else {
			big = t1 * 1 + 0;
		}
		s = 0;
		for (i = 0; i < 6; i = i + 1) {
			s = s + big;
		}
	`
	f := lower(t, src)
	o := Optimize(f)
	prop := func(a, b int64) bool {
		a, b = a%1000, b%1000
		m1 := map[string]int64{"a": a, "b": b}
		m2 := map[string]int64{"a": a, "b": b}
		e1 := ir.EvalFunc(f, m1, 0)
		e2 := ir.EvalFunc(o, m2, 0)
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if e1 != nil {
			return true // both fail the same way (div by zero)
		}
		return m1["s"] == m2["s"] && m1["big"] == m2["big"]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeBlocks(t *testing.T) {
	// A diamond that folds to a straight line must end as one block.
	f := Optimize(lower(t, `
		a = x + 1;
		if (1) { b = a * 2; } else { b = 0; }
		c = b + a;
	`))
	if len(f.Blocks) != 1 {
		t.Errorf("got %d blocks, want 1 after merging:\n%s", len(f.Blocks), f)
	}
	mem := map[string]int64{"x": 5}
	if err := ir.EvalFunc(f, mem, 0); err != nil {
		t.Fatal(err)
	}
	if mem["c"] != 18 {
		t.Errorf("c = %d, want 18", mem["c"])
	}
}

func TestMergeKeepsLoops(t *testing.T) {
	// Loop back edges must survive merging (head has 2 preds).
	f := Optimize(lower(t, `
		s = 0;
		i = 0;
		while (i < n) { s = s + i; i = i + 1; }
		r = s;
	`))
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	mem := map[string]int64{"n": 5}
	if err := ir.EvalFunc(f, mem, 0); err != nil {
		t.Fatal(err)
	}
	if mem["r"] != 10 {
		t.Errorf("r = %d, want 10", mem["r"])
	}
	// The loop must still be a loop: some block branches.
	hasBranch := false
	for _, b := range f.Blocks {
		if b.Term == ir.TermBranch {
			hasBranch = true
		}
	}
	if !hasBranch {
		t.Error("loop disappeared")
	}
}

func TestMergeForwardsAcrossBoundary(t *testing.T) {
	// After merging, the store in the first half feeds the load in the
	// second half without a memory round trip.
	f := Optimize(lower(t, `
		t = a * b;
		if (1) { u = t + 1; } else { u = 0; }
	`))
	if len(f.Blocks) != 1 {
		t.Fatalf("want single block, got %d", len(f.Blocks))
	}
	loads := 0
	for _, n := range f.Blocks[0].Nodes {
		if n.Op == ir.OpLoad && n.Var == "t" {
			loads++
		}
	}
	if loads != 0 {
		t.Errorf("load of t survived store-load forwarding across merge")
	}
}

func TestReassociationBalancesChains(t *testing.T) {
	f := Optimize(lower(t, `y = a + b + c + d + e + g + h + k;`))
	b := f.Blocks[0]
	_, bot := b.Levels()
	maxDepth := 0
	for _, n := range b.Nodes {
		if n.Op == ir.OpAdd && bot[n] > maxDepth {
			maxDepth = bot[n]
		}
	}
	// 8 leaves: balanced depth is 3 ADD levels (+1 for the loads below),
	// left-leaning would be 7.
	if maxDepth > 4 {
		t.Errorf("chain not balanced: ADD height %d\n%s", maxDepth, b)
	}
	mem := map[string]int64{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "g": 6, "h": 7, "k": 8}
	if err := ir.EvalFunc(f, mem, 0); err != nil {
		t.Fatal(err)
	}
	if mem["y"] != 36 {
		t.Errorf("y = %d, want 36", mem["y"])
	}
}

func TestReassociationKeepsSharing(t *testing.T) {
	// t1 = a+b is used twice: it must stay shared, not be absorbed into
	// both chains.
	f := Optimize(lower(t, `
		t1 = a + b;
		p = t1 + c + d;
		q = t1 + e;
	`))
	if got := countOps(f, ir.OpAdd); got > 4 {
		t.Errorf("%d ADDs after reassociation, want <= 4 (sharing broken)", got)
	}
	mem := map[string]int64{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5}
	if err := ir.EvalFunc(f, mem, 0); err != nil {
		t.Fatal(err)
	}
	if mem["p"] != 10 || mem["q"] != 8 {
		t.Errorf("mem = %v", mem)
	}
}

func TestReassociationMixedOps(t *testing.T) {
	// SUB breaks the chain; MUL chains balance independently.
	f := Optimize(lower(t, `y = (a * b * c * d) - (e + g + h + k);`))
	mem := map[string]int64{"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "g": 6, "h": 7, "k": 8}
	if err := ir.EvalFunc(f, mem, 0); err != nil {
		t.Fatal(err)
	}
	if mem["y"] != 24-26 {
		t.Errorf("y = %d, want -2", mem["y"])
	}
}

// TestReassociateLoadNotForwardedPastStore: a load whose only user
// appears after a store to the same variable must keep reading the
// value from before the store. reassociateBlock used to materialize
// loads lazily at their first user's position, where the builder
// forwarded them to the freshly stored value — a miscompile reachable
// from real source (e.g. "b=5; t=d; d=5; b=t+5;" after the dead store
// of t is eliminated).
func TestReassociateLoadNotForwardedPastStore(t *testing.T) {
	b := ir.NewBlock("entry")
	five := b.NewConst(5)
	b.NewStore("b", five)
	oldD := b.NewLoad("d")
	b.NewStore("d", five)
	b.NewStore("b", b.NewNode(ir.OpAdd, oldD, five))
	b.Term = ir.TermReturn
	f := &ir.Func{Name: "m", Blocks: []*ir.Block{b}}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	of := Optimize(f)
	mem := map[string]int64{"d": 4}
	if err := ir.EvalFunc(of, mem, 100); err != nil {
		t.Fatal(err)
	}
	if mem["b"] != 9 {
		t.Errorf("b = %d, want 9 (load of d forwarded past the store of d):\n%s", mem["b"], of)
	}
	if mem["d"] != 5 {
		t.Errorf("d = %d, want 5:\n%s", mem["d"], of)
	}
}

// TestSecondLocalPassOnUnmergedBlocks pins Optimize's output on the two
// smallest differential-corpus programs (difftest seeds 268 and 466)
// where the second local pass changes a block that mergeBlocks did not
// touch. optimizeBlock after reassociateBlock is not idempotent: the
// re-emission renumbers the nodes reassociation reordered, so commutative
// operands come back in a different canonical order (seed 268), and
// rebalancing a chain can pair two constants that only the next folding
// pass combines, x * (-3 * -2) into x * 6 (seed 466). Running the second
// pass on merged blocks only would leave both blocks as the first pass
// made them.
func TestSecondLocalPassOnUnmergedBlocks(t *testing.T) {
	for _, tc := range []struct {
		name, src, block, want string
	}{
		{
			name: "reorder", block: "entry",
			src: "d = b;\nb = (b + 0);\nv0 = ((9 + b) + (a - b));\n",
			want: `func main:
block entry:
  n0:LOAD(b)
  n1:STORE(d)<-n0
  n2:STORE(b)<-n0
  n3:LOAD(a)
  n4:SUB(n3,n0)
  n5:CONST(9)
  n6:ADD(n4,n5)
  n7:ADD(n0,n6)
  n8:STORE(v0)<-n7
  return
`,
		},
		{
			name: "fold", block: "b2",
			src: "v0 = d;\nif (b == (a + b)) {\nv1 = ((v0 + d) * (8 + c));\n} else {\nv2 = ((d + d) * (-3 - c));\n}\n" +
				"v3 = (v1 * v1);\nv4 = ((-3 * v3) * -2);\nv1 = v0;\n",
			want: `func main:
block entry:
  n0:LOAD(d)
  n1:STORE(v0)<-n0
  n2:LOAD(b)
  n3:LOAD(a)
  n4:ADD(n2,n3)
  n5:CMPEQ(n2,n4)
  branch n5 ? b1 : b3
block b1:
  n0:LOAD(v0)
  n1:LOAD(d)
  n2:ADD(n0,n1)
  n3:LOAD(c)
  n4:CONST(8)
  n5:ADD(n3,n4)
  n6:MUL(n2,n5)
  n7:STORE(v1)<-n6
  jump b2
block b3:
  n0:LOAD(d)
  n1:ADD(n0,n0)
  n2:LOAD(c)
  n3:CONST(-3)
  n4:SUB(n3,n2)
  n5:MUL(n1,n4)
  n6:STORE(v2)<-n5
  jump b2
block b2:
  n0:LOAD(v1)
  n1:MUL(n0,n0)
  n2:STORE(v3)<-n1
  n3:CONST(6)
  n4:MUL(n1,n3)
  n5:STORE(v4)<-n4
  n6:LOAD(v0)
  n7:STORE(v1)<-n6
  return
`,
		},
	} {
		f := lower(t, tc.src)
		got := Optimize(f)
		if got.String() != tc.want {
			t.Errorf("%s: Optimize output changed\ngot:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
		e := newEmitter()
		once := reassociateBlock(&e, optimizeBlock(&e, f.Block(tc.block)))
		if final := got.Block(tc.block); final == nil || final.String() == once.String() {
			t.Errorf("%s: block %s is already final after one local pass; the pinned case no longer needs the second", tc.name, tc.block)
		}
	}
}
