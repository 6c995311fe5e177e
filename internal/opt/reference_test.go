package opt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"testing"

	"aviv/internal/bench"
	"aviv/internal/dataflow"
	"aviv/internal/ir"
	"aviv/internal/lang"
	"aviv/internal/verify"
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
// block from OutSets, the package-level PruneBlock, the available-fact
// list from InFacts, and a CSE rewrite keyed by ExprKey strings.
// globalOptimize must produce the same blocks from one CFG, the
// liveness bit sets and one expression interner.
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
			of, _ := dataflow.OracleFactOf(avail.X, fact)
			if v, ok := byExpr[of.Expr]; !ok || of.Var < v {
				byExpr[of.Expr] = of.Var
			}
		}
		if len(byExpr) == 0 {
			continue
		}
		if nb, ok := refRewriteBlockCSE(b, byExpr); ok {
			f.Blocks[i] = nb
			changed = true
		}
	}
	return changed
}

// refRewriteBlockCSE is rewriteBlockCSE keyed by ExprKey strings
// instead of interned expression IDs.
func refRewriteBlockCSE(b *ir.Block, byExpr map[string]string) (*ir.Block, bool) {
	firstStore := make(map[string]int)
	for idx, n := range b.Nodes {
		if n.Op == ir.OpStore {
			if _, ok := firstStore[n.Var]; !ok {
				firstStore[n.Var] = idx
			}
		}
	}
	entryValue := func(idx int, vars []string) bool {
		for _, v := range vars {
			if fs, ok := firstStore[v]; ok && fs < idx {
				return false
			}
		}
		return true
	}
	rewrite := make([]bool, b.IDBound())
	src := make([]string, len(rewrite))
	nRewrites := 0
	for idx, n := range b.Nodes {
		if n.Op == ir.OpConst || n.Op == ir.OpLoad || n.Op == ir.OpStore {
			continue
		}
		key, vars, ok := dataflow.ExprKey(n)
		if !ok {
			continue
		}
		v, ok := byExpr[key]
		if !ok {
			continue
		}
		if !entryValue(idx, vars) {
			continue
		}
		if fs, ok := firstStore[v]; ok && fs < idx {
			continue
		}
		rewrite[n.ID], src[n.ID] = true, v
		nRewrites++
	}
	if nRewrites == 0 {
		return nil, false
	}
	nb := ir.NewBuilder(b.Name)
	newOf := make([]*ir.Node, len(rewrite))
	for _, n := range b.Nodes {
		if rewrite[n.ID] {
			newOf[n.ID] = nb.Load(src[n.ID])
			continue
		}
		switch n.Op {
		case ir.OpConst:
			newOf[n.ID] = nb.Const(n.Const)
		case ir.OpLoad:
			newOf[n.ID] = nb.Load(n.Var)
		case ir.OpStore:
			nb.Store(n.Var, newOf[n.Args[0].ID])
		default:
			args := make([]*ir.Node, len(n.Args))
			for j, a := range n.Args {
				args[j] = newOf[a.ID]
			}
			newOf[n.ID] = emitSimplified(nb, n.Op, args)
		}
	}
	switch b.Term {
	case ir.TermBranch:
		nb.Branch(newOf[b.Cond.ID], b.Succs[0], b.Succs[1])
	case ir.TermJump:
		nb.Jump(b.Succs[0])
	case ir.TermReturn:
		nb.Return()
	default:
		nb.Block.Term = b.Term
		nb.Block.Succs = append([]string(nil), b.Succs...)
	}
	out := nb.Finish()
	if compCount(out) < compCount(b) && len(out.Nodes) < len(b.Nodes) {
		return out, true
	}
	return nil, false
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
		want := optimizeLocal(ir.NewBuilder(""), f)
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

// TestOptimizeCorpusHash pins Optimize's exact output over the whole
// differential corpus: one SHA-256 over every function's label and
// optimized text, in corpus order. A change to any pass, its order or
// the re-emission shows up here as a changed hash.
func TestOptimizeCorpusHash(t *testing.T) {
	const want = "437d47c5e7595bad6bd1ce576986ac80f252918f1dc52ab59c575100c5cf147f"
	h := sha256.New()
	for _, o := range optimizedCorpus(t) {
		io.WriteString(h, o.label+"\n"+o.g.String()+"\n")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("optimizer corpus hash = %s, want %s", got, want)
	}
}

// TestOptimizeLeavesNoDeadStore: Optimize's output has no store that
// global liveness proves dead, over the differential corpus. Code
// generation relies on this: aviv.Compile covers every store it is
// given, so a dead store the front end leaves behind costs code size.
// Both checks use internal/verify's path-search liveness, not package
// dataflow: the solver's live-out sets must agree with it, and no block
// may lose a store to its own backward prune scan.
func TestOptimizeLeavesNoDeadStore(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 10
	}
	for k, o := range optimizedCorpus(t) {
		if k%step != 0 {
			continue
		}
		if vs := verify.CheckLiveness(o.g, dataflow.Liveness(o.g).OutSets()); len(vs) > 0 {
			t.Fatalf("%s: liveness cross-check: %v", o.label, vs)
		}
		outs := verify.LiveOutSets(o.g)
		for i, b := range o.g.Blocks {
			if vs := verify.CheckPrune(b, b, outs[i]); len(vs) > 0 {
				t.Fatalf("%s: block %s keeps a dead store: %v", o.label, b.Name, vs)
			}
		}
	}
}

// optimizedFunc is one corpus function after Optimize.
type optimizedFunc struct {
	label string
	g     *ir.Func
}

var (
	optimizedOnce sync.Once
	optimizedAll  []optimizedFunc
)

// optimizedCorpus returns every function of forEachCorpusFunc after
// Optimize, in corpus order. The tests that read the whole optimized
// corpus share one Optimize run.
func optimizedCorpus(t *testing.T) []optimizedFunc {
	t.Helper()
	optimizedOnce.Do(func() {
		forEachCorpusFunc(t, 1, func(label string, f *ir.Func) {
			optimizedAll = append(optimizedAll, optimizedFunc{label, Optimize(f)})
		})
	})
	if len(optimizedAll) != 2440 {
		t.Fatalf("optimized corpus has %d functions, want 2440", len(optimizedAll))
	}
	return optimizedAll
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
		bb := ir.NewBuilder("")
		out := optimizeLocal(bb, f)
		type term struct {
			kind  ir.TermKind
			succs string
		}
		before := make([]term, len(out.Blocks))
		for i, b := range out.Blocks {
			before[i] = term{b.Term, fmt.Sprint(b.Succs)}
		}
		globalOptimize(bb, out)
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
