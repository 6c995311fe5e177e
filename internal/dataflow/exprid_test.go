package dataflow_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"aviv/internal/bench"
	"aviv/internal/dataflow"
	"aviv/internal/dataflow/dataflowtest"
	"aviv/internal/ir"
	"aviv/internal/lang"
	"aviv/internal/opt"
)

// forEachCorpusFunc lowers the optimizer's differential corpus (the one
// opt's TestGlobalOptimizeMatchesReference compares over) and calls fn
// on each function: the difftest programs of seeds 0–599 (odd seeds
// bitwise), each at unroll factors 1 and 2, then 40 25-block
// bench.MultiBlockSource programs, each followed by 30 cumulative
// bench.MutateSource edits. That is 2,440 functions. With step > 1 only
// every step-th function is visited.
func forEachCorpusFunc(t *testing.T, step int, fn func(label string, f *ir.Func)) {
	t.Helper()
	k := 0
	visit := func(label, src string, unroll int) {
		k++
		if (k-1)%step != 0 {
			return
		}
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if unroll > 1 {
			p = lang.Unroll(p, unroll)
		}
		f, err := lang.Lower(p, "main")
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fn(label, f)
	}
	for seed := int64(0); seed < 600; seed++ {
		src, _ := bench.DiffProgram(seed, seed%2 == 1)
		for _, unroll := range []int{1, 2} {
			visit(fmt.Sprintf("difftest seed %d unroll %d", seed, unroll), src, unroll)
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		src := bench.MultiBlockSource(seed, 25, 5)
		visit(fmt.Sprintf("multiblock seed %d", seed), src, 1)
		for e := int64(0); e < 30; e++ {
			src = bench.MutateSource(src, seed*1000+e)
			visit(fmt.Sprintf("multiblock seed %d edit %d", seed, e), src, 1)
		}
	}
}

// checkExprIDs interns every block of f in one State and checks it
// against ExprKey, the string oracle: a node has an ID exactly when
// ExprKey returns ok, two nodes share an ID exactly when their keys are
// equal, and each ID carries the key's variables and kind. It also
// checks that the available-expression fact universe built on the IDs
// is, in string form, exactly the facts ExprKey derives block by block.
func checkExprIDs(t *testing.T, label string, f *ir.Func) {
	t.Helper()
	st := dataflow.NewState(dataflow.NewCFG(f))
	x := st.X
	idOf := make(map[string]dataflow.ExprID)
	keyOf := make(map[dataflow.ExprID]string)
	for i, b := range f.Blocks {
		ids := st.ExprIDs(i)
		for _, n := range b.Nodes {
			key, vars, ok := dataflow.ExprKey(n)
			id := ids[n.ID]
			if ok != (id != dataflow.NoExpr) {
				t.Fatalf("%s: block %s node %v: ExprKey ok=%v but ID %d", label, b.Name, n, ok, id)
			}
			if !ok {
				continue
			}
			if prev, seen := idOf[key]; seen && prev != id {
				t.Fatalf("%s: key %s has IDs %d and %d", label, key, prev, id)
			}
			if prev, seen := keyOf[id]; seen && prev != key {
				t.Fatalf("%s: ID %d names %s and %s", label, id, prev, key)
			}
			idOf[key], keyOf[id] = id, key
			if got := varNames(x, id); !slices.Equal(got, vars) {
				t.Fatalf("%s: %s reads %v, interner says %v", label, key, vars, got)
			}
			if comp := !strings.HasPrefix(key, "@") && !strings.HasPrefix(key, "#"); x.IsComputation(id) != comp {
				t.Fatalf("%s: %s IsComputation = %v", label, key, x.IsComputation(id))
			}
		}
	}
	if len(keyOf) != x.Len() {
		t.Fatalf("%s: %d keys, %d IDs", label, len(keyOf), x.Len())
	}

	avail := dataflow.AvailableCFG(dataflow.NewCFG(f))
	got := make(map[dataflowtest.Fact]bool)
	for _, fact := range avail.Facts {
		of, _ := dataflowtest.FactOf(avail.X, fact)
		got[of] = true
	}
	want := make(map[dataflowtest.Fact]bool)
	for _, b := range f.Blocks {
		for _, of := range dataflowtest.GenFacts(b) {
			want[of] = true
		}
	}
	if len(got) != len(avail.Facts) || len(got) != len(want) {
		t.Fatalf("%s: %d facts (%d distinct), ExprKey derives %d", label, len(avail.Facts), len(got), len(want))
	}
	for of := range want {
		if !got[of] {
			t.Fatalf("%s: fact %+v missing from the universe", label, of)
		}
	}
}

// varNames returns the names of the variables expression id reads,
// sorted like ExprKey's.
func varNames(x *dataflow.Exprs, id dataflow.ExprID) []string {
	var names []string
	for _, v := range x.Vars(id) {
		names = append(names, x.VarName(v))
	}
	slices.Sort(names)
	return names
}

// TestExprIDsMatchExprKey runs checkExprIDs over the optimizer corpus,
// on each function as lowered and as optimized.
func TestExprIDsMatchExprKey(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 10
	}
	n := 0
	forEachCorpusFunc(t, step, func(label string, f *ir.Func) {
		n++
		checkExprIDs(t, label, f)
		checkExprIDs(t, label+" optimized", opt.Optimize(f))
	})
	if !testing.Short() && n != 2440 {
		t.Fatalf("checked %d functions, want 2440", n)
	}
}

// TestExprIDsDepthAndSharing pins the edge cases: ExprKey stops at depth
// 12, so a chain of 12 operations has an ID and a chain of 13 does not;
// a DAG that doubles at every level to depth 12 is interned once per
// level, equal to a separately built copy, and reads only its one
// variable.
func TestExprIDsDepthAndSharing(t *testing.T) {
	chain := func(b *ir.Block, ops int) *ir.Node {
		v := b.NewLoad("a")
		for k := 0; k < ops; k++ {
			v = b.NewNode(ir.OpSub, v, b.NewConst(int64(k)))
		}
		return v
	}
	doubling := func(b *ir.Block, levels int) *ir.Node {
		v := b.NewLoad("a")
		for k := 0; k < levels; k++ {
			v = b.NewNode(ir.OpMul, v, v)
		}
		return v
	}
	b := ir.NewBlock("b")
	c12, c13 := chain(b, 12), chain(b, 13)
	d12, d12copy := doubling(b, 12), doubling(b, 12)
	d13 := doubling(b, 13)
	b.NewStore("x", c12)
	b.NewStore("y", c13)
	b.NewStore("z", d12)
	b.NewStore("w", d12copy)
	b.NewStore("v", d13)
	c := ir.NewBlock("c")
	la, lb := c.NewLoad("a"), c.NewLoad("b")
	ab, ba := c.NewNode(ir.OpAdd, la, lb), c.NewNode(ir.OpAdd, lb, la)
	sab, sba := c.NewNode(ir.OpSub, la, lb), c.NewNode(ir.OpSub, lb, la)
	f := &ir.Func{Name: "f", Blocks: []*ir.Block{b, c}}
	st := dataflow.NewState(dataflow.NewCFG(f))
	x := st.X
	ids := st.ExprIDs(0)
	for _, tc := range []struct {
		name  string
		n     *ir.Node
		keyed bool
	}{
		{"chain of 12", c12, true},
		{"chain of 13", c13, false},
		{"doubling DAG of depth 12", d12, true},
		{"doubling DAG of depth 13", d13, false},
	} {
		_, _, ok := dataflow.ExprKey(tc.n)
		if ok != tc.keyed {
			t.Fatalf("%s: ExprKey ok = %v, want %v", tc.name, ok, tc.keyed)
		}
		if got := ids[tc.n.ID] != dataflow.NoExpr; got != tc.keyed {
			t.Fatalf("%s: has ID = %v, want %v", tc.name, got, tc.keyed)
		}
		if tc.keyed && x.Height(ids[tc.n.ID]) != 12 {
			t.Fatalf("%s: height %d, want 12", tc.name, x.Height(ids[tc.n.ID]))
		}
	}
	if ids[d12.ID] != ids[d12copy.ID] {
		t.Fatal("two copies of the doubling DAG got different IDs")
	}
	if vars := varNames(x, ids[d12.ID]); !slices.Equal(vars, []string{"a"}) {
		t.Fatalf("doubling DAG reads %v, want [a]", vars)
	}
	// IDs: load a; constants 0..12; 12 Subs (the chain of 13 reuses the
	// first 12, and its 13th has no ID); 12 Muls (the copy and the
	// depth-13 DAG reuse them, and the 13th has no ID).
	if want := 1 + 12 + 12 + 13; x.Len() != want {
		t.Fatalf("%d IDs interned, want %d", x.Len(), want)
	}

	// Commutative operands in either order share an ID; a
	// non-commutative op keeps its operand order.
	cids := st.ExprIDs(1)
	if cids[ab.ID] != cids[ba.ID] {
		t.Error("a+b and b+a got different IDs")
	}
	if cids[sab.ID] == cids[sba.ID] {
		t.Error("a-b and b-a share an ID")
	}
	// A State keys a block again only when the function holds another
	// block at its index.
	if again := st.ExprIDs(1); &again[0] != &cids[0] {
		t.Error("an unchanged block was keyed again")
	}
	c2 := ir.NewBlock("c")
	ba2 := c2.NewNode(ir.OpAdd, c2.NewLoad("b"), c2.NewLoad("a"))
	f.Blocks[1] = c2
	if ids2 := st.ExprIDs(1); ids2[ba2.ID] != cids[ab.ID] {
		t.Error("a replaced block's expression got a new ID")
	}
}
