package opt

import (
	"testing"

	"aviv/internal/ir"
)

// countStores returns how many stores to name the block contains.
func countStores(b *ir.Block, name string) int {
	n := 0
	for _, nd := range b.Nodes {
		if nd.Op == ir.OpStore && nd.Var == name {
			n++
		}
	}
	return n
}

// TestDeadStoreWithInterveningLoad is the regression test for the
// deadStores miscount: when the same address is stored twice in one
// block with an intervening load, the first store is kept because the
// load appears to observe it — but when the load's only consumer is
// itself a dead store, the first store is dead too, and a single
// optimizeBlock pass used to leave it behind (deadStores was computed
// on the pre-forwarding block and never revisited).
//
// Block under test (node order = execution order):
//
//	store x <- 1
//	load x            ; forwarded away during re-emission
//	store y <- load x ; dead: overwritten by the last store below
//	store x <- 2      ; overwrites the first store of x
//	store y <- 3
//
// After the dead store of y is dropped and the load forwarded, the
// first store of x is overwritten with no intervening load, so exactly
// one store of x (value 2) and one store of y (value 3) must survive.
func TestDeadStoreWithInterveningLoad(t *testing.T) {
	b := ir.NewBlock("b")
	c1 := b.NewConst(1)
	b.NewStore("x", c1)
	l := b.NewLoad("x")
	b.NewStore("y", l)
	c2 := b.NewConst(2)
	b.NewStore("x", c2)
	c3 := b.NewConst(3)
	b.NewStore("y", c3)
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}

	e := newEmitter()
	nb := optimizeBlock(&e, b)
	if got := countStores(nb, "x"); got != 1 {
		t.Errorf("stores of x after optimizeBlock = %d, want 1\n%s", got, nb)
	}
	if got := countStores(nb, "y"); got != 1 {
		t.Errorf("stores of y after optimizeBlock = %d, want 1\n%s", got, nb)
	}
	// The surviving stores must carry the final values.
	for _, n := range nb.Nodes {
		if n.Op == ir.OpStore {
			if n.Args[0].Op != ir.OpConst {
				t.Errorf("store of %s kept non-constant value %s", n.Var, n.Args[0])
				continue
			}
			want := map[string]int64{"x": 2, "y": 3}[n.Var]
			if n.Args[0].Const != want {
				t.Errorf("store of %s keeps value %d, want %d", n.Var, n.Args[0].Const, want)
			}
		}
	}
	// Semantics must be preserved: both blocks leave the same memory.
	memA := map[string]int64{"x": 7, "y": 8}
	memB := map[string]int64{"x": 7, "y": 8}
	if _, err := ir.EvalBlock(b, memA); err != nil {
		t.Fatal(err)
	}
	if _, err := ir.EvalBlock(nb, memB); err != nil {
		t.Fatal(err)
	}
	for k, v := range memA {
		if memB[k] != v {
			t.Errorf("mem[%s] = %d after optimization, want %d", k, memB[k], v)
		}
	}
}

// TestDeadStoreCascade checks the fixpoint behaviour on a chain of
// read-modify-write updates: x = x+1 three times, hand-built so the
// intermediate loads sit between the stores. Every intermediate store
// is dead once its load is forwarded; only the last survives.
func TestDeadStoreCascade(t *testing.T) {
	b := ir.NewBlock("b")
	cur := b.NewLoad("x")
	for i := 0; i < 3; i++ {
		one := b.NewConst(1)
		sum := b.NewNode(ir.OpAdd, cur, one)
		b.NewStore("x", sum)
		if i < 2 {
			cur = b.NewLoad("x")
		}
	}
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
	e := newEmitter()
	nb := optimizeBlock(&e, b)
	if got := countStores(nb, "x"); got != 1 {
		t.Errorf("stores of x after optimizeBlock = %d, want 1\n%s", got, nb)
	}
	mem := map[string]int64{"x": 10}
	if _, err := ir.EvalBlock(nb, mem); err != nil {
		t.Fatal(err)
	}
	if mem["x"] != 13 {
		t.Errorf("x = %d after optimized block, want 13", mem["x"])
	}
}
