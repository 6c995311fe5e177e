package opt

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"testing"

	"aviv/internal/bench"
	"aviv/internal/dataflow"
	"aviv/internal/dataflow/dataflowtest"
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
			of, _ := dataflowtest.FactOf(avail.X, fact)
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
		e := newEmitter()
		want := optimizeLocal(&e, f)
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
// Both checks use dataflowtest's path-search liveness, not the solver:
// the solver's live-out sets must equal it, and no block may lose a
// store to dataflowtest's own backward prune scan.
func TestOptimizeLeavesNoDeadStore(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 10
	}
	for k, o := range optimizedCorpus(t) {
		if k%step != 0 {
			continue
		}
		outs := dataflowtest.LiveOutSets(o.g)
		for i, claimed := range dataflow.Liveness(o.g).OutSets() {
			if !maps.Equal(claimed, outs[i]) {
				t.Fatalf("%s: block %s: solver live-out %v, path search %v", o.label, o.g.Blocks[i].Name, claimed, outs[i])
			}
		}
		for i, b := range o.g.Blocks {
			if err := dataflowtest.CheckPrune(b, b, outs[i]); err != nil {
				t.Fatalf("%s: keeps a dead store: %v", o.label, err)
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
		e := newEmitter()
		out := optimizeLocal(&e, f)
		type term struct {
			kind  ir.TermKind
			succs string
		}
		before := make([]term, len(out.Blocks))
		for i, b := range out.Blocks {
			before[i] = term{b.Term, fmt.Sprint(b.Succs)}
		}
		globalOptimize(&e, out)
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

// TestOptimizeLeavesInputUnchanged: Optimize returns an optimized copy
// and leaves its input as it was — every block's text and successor
// list, over the differential corpus. Re-emitted blocks share their
// Succs slice with the block they copy, so a pass that retargeted an
// edge in place would show up here as a changed input.
//
// A block the first local pass leaves as it is reaches the control-flow
// passes as the input's own block. The hand-written cases pin the two
// that change such a block: foldBranches turns the entry's constant
// branch into a jump, and threadJumps retargets the entry's edge around
// an empty jump-only block.
func TestOptimizeLeavesInputUnchanged(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 10
	}
	leavesInput := func(label string, f *ir.Func) {
		before := make([]string, len(f.Blocks))
		succs := make([][]string, len(f.Blocks))
		for i, b := range f.Blocks {
			before[i] = b.String()
			succs[i] = append([]string(nil), b.Succs...)
		}
		Optimize(f)
		if len(f.Blocks) != len(before) {
			t.Fatalf("%s: input has %d blocks after Optimize, %d before", label, len(f.Blocks), len(before))
		}
		for i, b := range f.Blocks {
			if got := b.String(); got != before[i] {
				t.Fatalf("%s: Optimize changed input block %d\nbefore:\n%s\nafter:\n%s", label, i, before[i], got)
			}
			if !slices.Equal(b.Succs, succs[i]) {
				t.Fatalf("%s: Optimize changed input block %s's successors from %v to %v", label, b.Name, succs[i], b.Succs)
			}
		}
	}
	forEachCorpusFunc(t, step, leavesInput)
	for _, src := range []string{
		"if (1) { x = 1; } else { x = 2; }\n",
		"if (a > 0) { } else { x = 2; }\ny = 3;\n",
	} {
		leavesInput(src, lower(t, src))
	}
}
