package opt

import (
	"fmt"
	"testing"

	"aviv/internal/bench"
	"aviv/internal/dataflow"
	"aviv/internal/ir"
	"aviv/internal/lang"
)

// forEachCorpusFunc lowers the optimizer's differential corpus and calls
// fn on each function: the difftest programs of seeds 0–599 (odd seeds
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

// refGlobalOptimize is globalOptimize over the map-based interfaces of
// package dataflow: a fresh CFG for every analysis, one live-out map per
// block from OutSets, the package-level PruneBlock, and the
// available-fact list from InFacts. globalOptimize must produce the same
// blocks from one CFG and the liveness bit sets.
func refGlobalOptimize(f *ir.Func) {
	for {
		changed := refGlobalDeadStores(f)
		if refGlobalCSE(f) {
			changed = true
		}
		if !changed {
			return
		}
	}
}

func refGlobalDeadStores(f *ir.Func) bool {
	changed := false
	for {
		outs := dataflow.Liveness(f).OutSets()
		round := false
		for i, b := range f.Blocks {
			if nb, pruned := dataflow.PruneBlock(b, outs[i]); pruned > 0 {
				f.Blocks[i] = nb
				round = true
			}
		}
		if !round {
			return changed
		}
		changed = true
	}
}

func refGlobalCSE(f *ir.Func) bool {
	avail := dataflow.Available(f)
	if len(avail.Facts) == 0 {
		return false
	}
	changed := false
	for i, b := range f.Blocks {
		if i == 0 || !avail.G.Reach[i] {
			continue
		}
		byExpr := make(map[string]string)
		for _, fact := range avail.InFacts(i) {
			if v, ok := byExpr[fact.Expr]; !ok || fact.Var < v {
				byExpr[fact.Expr] = fact.Var
			}
		}
		if len(byExpr) == 0 {
			continue
		}
		if nb, ok := rewriteBlockCSE(b, byExpr); ok {
			f.Blocks[i] = nb
			changed = true
		}
	}
	return changed
}

// TestGlobalOptimizeMatchesReference compares Optimize block by block
// against the local passes followed by refGlobalOptimize, over the whole
// differential corpus.
func TestGlobalOptimizeMatchesReference(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 10
	}
	n := 0
	forEachCorpusFunc(t, step, func(label string, f *ir.Func) {
		n++
		got := Optimize(f)
		want := optimizeLocal(f)
		refGlobalOptimize(want)
		if len(got.Blocks) != len(want.Blocks) {
			t.Fatalf("%s: %d blocks, reference has %d", label, len(got.Blocks), len(want.Blocks))
		}
		for i := range got.Blocks {
			if g, w := got.Blocks[i].String(), want.Blocks[i].String(); g != w {
				t.Fatalf("%s: block %d differs from the reference\ngot:\n%s\nwant:\n%s", label, i, g, w)
			}
		}
	})
	if !testing.Short() && n != 2440 {
		t.Fatalf("compared %d functions, want 2440", n)
	}
}

// TestGlobalOptimizeKeepsTerminators: the global passes rewrite block
// bodies only. Every block keeps its terminator kind and successors,
// which is what lets globalOptimize build one CFG for all its rounds.
func TestGlobalOptimizeKeepsTerminators(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 10
	}
	forEachCorpusFunc(t, step, func(label string, f *ir.Func) {
		out := optimizeLocal(f)
		type term struct {
			kind  ir.TermKind
			succs string
		}
		before := make([]term, len(out.Blocks))
		for i, b := range out.Blocks {
			before[i] = term{b.Term, fmt.Sprint(b.Succs)}
		}
		globalOptimize(out)
		if len(out.Blocks) != len(before) {
			t.Fatalf("%s: global passes changed the block count %d -> %d", label, len(before), len(out.Blocks))
		}
		for i, b := range out.Blocks {
			if got := (term{b.Term, fmt.Sprint(b.Succs)}); got != before[i] {
				t.Fatalf("%s: block %s terminator %v -> %v", label, b.Name, before[i], got)
			}
		}
	})
}
