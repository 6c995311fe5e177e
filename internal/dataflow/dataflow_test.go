package dataflow

import (
	"fmt"
	"testing"

	"aviv/internal/ir"
)

// buildFunc assembles a Func from a compact spec. Each block spec is
// name, a list of ops ("load v", "store v expr"...) executed in order,
// and a terminator.
type blockSpec struct {
	name  string
	body  func(b *ir.Block)
	term  ir.TermKind
	succs []string
	// condLoad names a variable whose load becomes the branch condition
	// (TermBranch only); "" branches on a constant 1.
	condLoad string
}

func buildFunc(t *testing.T, specs []blockSpec) *ir.Func {
	t.Helper()
	f := &ir.Func{Name: "test"}
	for _, s := range specs {
		b := ir.NewBlock(s.name)
		if s.body != nil {
			s.body(b)
		}
		b.Term = s.term
		b.Succs = append([]string(nil), s.succs...)
		if s.term == ir.TermBranch {
			if s.condLoad != "" {
				b.Cond = b.NewLoad(s.condLoad)
			} else {
				b.Cond = b.NewConst(1)
			}
		}
		f.Blocks = append(f.Blocks, b)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("bad test function: %v", err)
	}
	return f
}

// storeConst appends "store v <- const c".
func storeConst(b *ir.Block, v string, c int64) { b.NewStore(v, b.NewConst(c)) }

// storeExpr appends "store v <- load x + load y".
func storeExpr(b *ir.Block, v, x, y string) {
	b.NewStore(v, b.NewNode(ir.OpAdd, b.NewLoad(x), b.NewLoad(y)))
}

// testFuncs returns a menagerie of CFG shapes: straight line, diamond,
// loop, self-loop, unreachable block, multiple exits, infinite loop.
func testFuncs(t *testing.T) map[string]*ir.Func {
	return map[string]*ir.Func{
		"straight": buildFunc(t, []blockSpec{
			{name: "entry", body: func(b *ir.Block) { storeConst(b, "x", 1); storeExpr(b, "y", "a", "b") }, term: ir.TermJump, succs: []string{"b1"}},
			{name: "b1", body: func(b *ir.Block) { b.NewStore("z", b.NewLoad("x")); storeConst(b, "x", 2) }, term: ir.TermReturn},
		}),
		"diamond": buildFunc(t, []blockSpec{
			{name: "entry", body: func(b *ir.Block) { storeConst(b, "x", 1); storeExpr(b, "e", "a", "b") }, term: ir.TermBranch, succs: []string{"l", "r"}, condLoad: "c"},
			{name: "l", body: func(b *ir.Block) { storeConst(b, "x", 2); storeExpr(b, "e", "a", "b") }, term: ir.TermJump, succs: []string{"join"}},
			{name: "r", body: func(b *ir.Block) { b.NewStore("y", b.NewLoad("x")) }, term: ir.TermJump, succs: []string{"join"}},
			{name: "join", body: func(b *ir.Block) { b.NewStore("out", b.NewLoad("e")) }, term: ir.TermReturn},
		}),
		"loop": buildFunc(t, []blockSpec{
			{name: "entry", body: func(b *ir.Block) { storeConst(b, "i", 0); storeConst(b, "s", 0) }, term: ir.TermJump, succs: []string{"head"}},
			{name: "head", term: ir.TermBranch, succs: []string{"body", "exit"}, condLoad: "i"},
			{name: "body", body: func(b *ir.Block) {
				b.NewStore("s", b.NewNode(ir.OpAdd, b.NewLoad("s"), b.NewLoad("i")))
				b.NewStore("i", b.NewNode(ir.OpAdd, b.NewLoad("i"), b.NewConst(1)))
			}, term: ir.TermJump, succs: []string{"head"}},
			{name: "exit", body: func(b *ir.Block) { b.NewStore("out", b.NewLoad("s")) }, term: ir.TermReturn},
		}),
		"selfloop": buildFunc(t, []blockSpec{
			{name: "entry", body: func(b *ir.Block) { storeConst(b, "x", 1) }, term: ir.TermJump, succs: []string{"spin"}},
			{name: "spin", body: func(b *ir.Block) { storeConst(b, "t", 9) }, term: ir.TermBranch, succs: []string{"spin", "done"}, condLoad: "x"},
			{name: "done", term: ir.TermReturn},
		}),
		"unreachable": buildFunc(t, []blockSpec{
			{name: "entry", body: func(b *ir.Block) { storeConst(b, "x", 1) }, term: ir.TermJump, succs: []string{"end"}},
			{name: "island", body: func(b *ir.Block) { storeConst(b, "x", 7); b.NewStore("y", b.NewLoad("q")) }, term: ir.TermJump, succs: []string{"end"}},
			{name: "end", body: func(b *ir.Block) { b.NewStore("out", b.NewLoad("x")) }, term: ir.TermReturn},
		}),
		"twoexits": buildFunc(t, []blockSpec{
			{name: "entry", body: func(b *ir.Block) { storeConst(b, "x", 1); storeConst(b, "y", 2) }, term: ir.TermBranch, succs: []string{"a", "b"}, condLoad: "c"},
			{name: "a", body: func(b *ir.Block) { storeConst(b, "x", 3) }, term: ir.TermReturn},
			{name: "b", body: func(b *ir.Block) { b.NewStore("z", b.NewLoad("y")) }, term: ir.TermNone},
		}),
		"infinite": buildFunc(t, []blockSpec{
			{name: "entry", body: func(b *ir.Block) { storeConst(b, "x", 1) }, term: ir.TermJump, succs: []string{"spin"}},
			{name: "spin", body: func(b *ir.Block) { storeConst(b, "dead", 5) }, term: ir.TermJump, succs: []string{"spin"}},
		}),
	}
}

// randFunc generates a deterministic pseudo-random function: a handful
// of blocks with random load/store/op bodies and random terminators.
func randFunc(seed int64) *ir.Func {
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	vars := []string{"a", "b", "c", "d", "e"}
	nBlocks := 2 + next(5)
	f := &ir.Func{Name: "rand"}
	names := make([]string, nBlocks)
	for i := range names {
		names[i] = fmt.Sprintf("b%d", i)
	}
	for i := 0; i < nBlocks; i++ {
		b := ir.NewBlock(names[i])
		var values []*ir.Node
		nOps := 1 + next(6)
		for j := 0; j < nOps; j++ {
			switch next(4) {
			case 0:
				values = append(values, b.NewConst(int64(next(10))))
			case 1:
				values = append(values, b.NewLoad(vars[next(len(vars))]))
			case 2:
				if len(values) >= 2 {
					x, y := values[next(len(values))], values[next(len(values))]
					ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd}
					values = append(values, b.NewNode(ops[next(len(ops))], x, y))
				} else {
					values = append(values, b.NewConst(1))
				}
			case 3:
				if len(values) > 0 {
					b.NewStore(vars[next(len(vars))], values[next(len(values))])
				} else {
					storeConst(b, vars[next(len(vars))], int64(next(5)))
				}
			}
		}
		// Terminator: weight branches and jumps; last block returns.
		switch {
		case i == nBlocks-1:
			b.Term = ir.TermReturn
		case next(3) == 0:
			b.Term = ir.TermBranch
			if len(values) > 0 && next(2) == 0 {
				b.Cond = values[next(len(values))]
				if b.Cond.Op == ir.OpStore {
					b.Cond = b.NewLoad(vars[next(len(vars))])
				}
			} else {
				b.Cond = b.NewLoad(vars[next(len(vars))])
			}
			b.Succs = []string{names[next(nBlocks)], names[next(nBlocks)]}
		default:
			b.Term = ir.TermJump
			b.Succs = []string{names[next(nBlocks)]}
		}
		f.Blocks = append(f.Blocks, b)
	}
	return f
}

// checkAllAnalyses cross-checks every analysis against its oracle on f.
func checkAllAnalyses(t *testing.T, label string, f *ir.Func, g *CFG) {
	t.Helper()
	// Liveness.
	live := LivenessCFG(g)
	for i := range f.Blocks {
		for _, v := range live.Vars {
			if got, want := live.LiveOutOf(i, v), OracleLiveOut(g, i, v); got != want {
				t.Errorf("%s: liveOut(%s, %s) = %v, oracle %v", label, f.Blocks[i].Name, v, got, want)
			}
			if got, want := live.LiveInOf(i, v), OracleLiveIn(g, i, v); got != want {
				t.Errorf("%s: liveIn(%s, %s) = %v, oracle %v", label, f.Blocks[i].Name, v, got, want)
			}
		}
	}
	// Reaching definitions.
	reach := ReachingCFG(g)
	for i := range f.Blocks {
		for j, d := range reach.Defs {
			if got, want := reach.In[i].Get(j), OracleReachesIn(g, i, d); got != want {
				t.Errorf("%s: reachIn(%s, %+v) = %v, oracle %v", label, f.Blocks[i].Name, d, got, want)
			}
		}
	}
	// Available expressions.
	avail := AvailableCFG(g)
	for i := range f.Blocks {
		for j, fact := range avail.Facts {
			of, vars := OracleFactOf(avail.X, fact)
			if got, want := avail.In[i].Get(j), OracleAvailIn(g, i, of, vars); got != want {
				t.Errorf("%s: availIn(%s, %+v) = %v, oracle %v", label, f.Blocks[i].Name, of, got, want)
			}
		}
	}
	// Dominators.
	dom := Dominators(g)
	for c := range f.Blocks {
		for b := range f.Blocks {
			if got, want := dom.Dominates(b, c), OracleDominates(g, b, c); got != want {
				t.Errorf("%s: dominates(%s, %s) = %v, oracle %v", label, f.Blocks[b].Name, f.Blocks[c].Name, got, want)
			}
		}
	}
}

func TestAnalysesMatchOraclesOnShapes(t *testing.T) {
	for name, f := range testFuncs(t) {
		checkAllAnalyses(t, name, f, NewCFG(f))
		checkAllAnalyses(t, name+"/folded", f, NewCFGFolded(f))
	}
}

func TestAnalysesMatchOraclesOnRandomFuncs(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		f := randFunc(seed)
		if err := f.Verify(); err != nil {
			t.Fatalf("seed %d: invalid func: %v", seed, err)
		}
		checkAllAnalyses(t, fmt.Sprintf("seed%d", seed), f, NewCFG(f))
	}
}

// TestLivenessPruneMatchesMapPrune: pruning block i straight from the
// liveness bit sets gives the same block and count as the map-based
// PruneBlock on OutSets()[i], and returns the block itself when nothing
// is dead.
func TestLivenessPruneMatchesMapPrune(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 150; seed++ {
		f := randFunc(seed)
		live := Liveness(f)
		outs := live.OutSets()
		for i, b := range f.Blocks {
			got, gotN := live.PruneBlock(i)
			want, wantN := PruneBlock(b, outs[i])
			if gotN != wantN || got.String() != want.String() {
				t.Fatalf("seed %d block %s: pruned %d stores to\n%s\nmap-based prune: %d stores to\n%s", seed, b.Name, gotN, got, wantN, want)
			}
			if gotN == 0 && got != b {
				t.Errorf("seed %d block %s: nothing pruned but a copy came back", seed, b.Name)
			}
			total += gotN
		}
	}
	if total == 0 {
		t.Fatal("no store pruned on any random function; the comparison is vacuous")
	}
}

func TestLivenessExitBoundary(t *testing.T) {
	f := testFuncs(t)["straight"]
	live := Liveness(f)
	// Every variable of the function is live at the exit block's exit.
	exit := 1
	for _, v := range live.Vars {
		if !live.LiveOutOf(exit, v) {
			t.Errorf("variable %s not live at function exit", v)
		}
	}
	// x is stored in entry, read in b1: live across the edge.
	if !live.LiveOutOf(0, "x") {
		t.Error("x should be live out of entry")
	}
}

func TestDeadStoresLocalShadowing(t *testing.T) {
	b := ir.NewBlock("b")
	storeConst(b, "x", 1)
	storeConst(b, "x", 2)
	b.NewStore("y", b.NewLoad("x"))
	storeConst(b, "x", 3)
	dead := DeadStores(b, nil)
	if !dead[1] {
		t.Error("first store of x should be dead (shadowed before any load)")
	}
	if dead[3] || dead[6] {
		t.Errorf("read or final stores wrongly dead: %v", dead)
	}
	if len(dead) != 1 {
		t.Errorf("dead = %v, want exactly the first store of x", dead)
	}
}

func TestDeadStoresLiveOut(t *testing.T) {
	b := ir.NewBlock("b")
	storeConst(b, "t", 5)
	storeConst(b, "out", 6)
	// t dead at exit, out live.
	dead := DeadStores(b, map[string]bool{"out": true})
	if !dead[1] {
		t.Error("store of t should be dead when t is dead out")
	}
	if dead[3] {
		t.Error("store of out must stay")
	}
}

func TestPruneBlockCascade(t *testing.T) {
	// store x; load x feeding only a store y that is dead at exit:
	// pruning store y must cascade to the store of x.
	b := ir.NewBlock("b")
	storeConst(b, "x", 1)
	b.NewStore("y", b.NewLoad("x"))
	b.Term = ir.TermReturn
	nb, pruned := PruneBlock(b, map[string]bool{})
	if pruned != 2 {
		t.Fatalf("pruned %d stores, want 2\n%s", pruned, nb)
	}
	if len(nb.Nodes) != 0 {
		t.Errorf("pruned block should be empty, got\n%s", nb)
	}
	// With y live the chain must survive untouched (same object back).
	nb2, pruned2 := PruneBlock(b, map[string]bool{"y": true})
	if pruned2 != 0 || nb2 != b {
		t.Errorf("live chain wrongly pruned (%d)", pruned2)
	}
}

func TestExprKeyCanonicalization(t *testing.T) {
	b := ir.NewBlock("b")
	ab := b.NewNode(ir.OpAdd, b.NewLoad("a"), b.NewLoad("b"))
	ba := b.NewNode(ir.OpAdd, b.NewLoad("b"), b.NewLoad("a"))
	ka, _, ok := ExprKey(ab)
	if !ok {
		t.Fatal("ExprKey failed")
	}
	kb, _, _ := ExprKey(ba)
	if ka != kb {
		t.Errorf("commutative keys differ: %q vs %q", ka, kb)
	}
	sub := b.NewNode(ir.OpSub, b.NewLoad("a"), b.NewLoad("b"))
	sub2 := b.NewNode(ir.OpSub, b.NewLoad("b"), b.NewLoad("a"))
	ks, _, _ := ExprKey(sub)
	ks2, _, _ := ExprKey(sub2)
	if ks == ks2 {
		t.Error("non-commutative operand order must be preserved")
	}
	st := b.NewStore("x", ab)
	if _, _, ok := ExprKey(st); ok {
		t.Error("stores must not form expression keys")
	}
}

func TestCFGFoldedDropsConstEdges(t *testing.T) {
	f := buildFunc(t, []blockSpec{
		{name: "entry", term: ir.TermBranch, succs: []string{"taken", "skipped"}},
		{name: "taken", term: ir.TermReturn},
		{name: "skipped", term: ir.TermReturn},
	})
	full := NewCFG(f)
	if len(full.Succs[0]) != 2 {
		t.Fatalf("full CFG entry succs = %d, want 2", len(full.Succs[0]))
	}
	folded := NewCFGFolded(f)
	if len(folded.Succs[0]) != 1 || folded.Succs[0][0] != 1 {
		t.Fatalf("folded CFG should keep only the taken edge, got %v", folded.Succs[0])
	}
	if folded.Reach[2] {
		t.Error("skipped arm should be unreachable in the folded CFG")
	}
}
