package opt

import (
	"sync"
	"testing"

	"aviv/internal/ir"
)

// TestChecksAreExact: wherever a check says a local pass would give a
// block back unchanged, a forced re-emission must have the same
// fingerprint. The blocks are every block the local passes see over the
// differential corpus — lang.Lower's output and optimizeBlock's output
// in the first pass, and the second pass's inputs and optimizeBlock's
// output of them — each put to both checks, and then hand-built blocks
// that the corpus never hands a check, one per condition. The checks
// may say "changed" for a block that comes back identical anyway; that
// costs a re-emission, so the count is bounded: never for foldsNothing,
// and for rebalancesNothing (only through its conservative chain rule)
// within 2% of its checks.
func TestChecksAreExact(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 10
	}
	type tally struct{ checks, unchanged, missed int }
	var fold, rebal tally
	bb := ir.NewBuilder("")
	c := newCheck()
	// put puts b to both checks and reports which of the forced
	// re-emissions came back different.
	put := func(label string, b *ir.Block) (foldChanged, rebalChanged bool) {
		t.Helper()
		count := func(tl *tally, pass string, same bool, got *ir.Block) bool {
			tl.checks++
			identical := got.Fingerprint() == b.Fingerprint()
			switch {
			case same && !identical:
				t.Fatalf("%s: %s says block %s comes back unchanged, but the re-emission differs\nblock:\n%s\nre-emitted:\n%s", label, pass, b.Name, b, got)
			case same:
				tl.unchanged++
			case identical:
				tl.missed++
			}
			return !identical
		}
		foldChanged = count(&fold, "foldsNothing", c.foldsNothing(b), optimizeBlockOnce(bb, b, nil, nil))
		rebalChanged = count(&rebal, "rebalancesNothing", c.rebalancesNothing(b), reassociateBlock(bb, b))
		return foldChanged, rebalChanged
	}
	forEachCorpusFunc(t, step, func(label string, f *ir.Func) {
		// optimizeLocal with every re-emission forced.
		out := &ir.Func{Name: f.Name}
		for _, b := range f.Blocks {
			ob := optimizeBlock(bb, b)
			put(label, b)
			put(label, ob)
			out.Blocks = append(out.Blocks, reassociateBlock(bb, ob))
		}
		foldBranches(bb, out)
		threadJumps(out)
		removeUnreachable(out)
		mergeBlocks(bb, out)
		for _, b := range out.Blocks {
			put(label, b)
			put(label, optimizeBlock(bb, b))
		}
	})
	t.Logf("foldsNothing: %d checks, %d unchanged, %d re-emitted identical", fold.checks, fold.unchanged, fold.missed)
	t.Logf("rebalancesNothing: %d checks, %d unchanged, %d re-emitted identical", rebal.checks, rebal.unchanged, rebal.missed)
	if fold.unchanged == 0 || rebal.unchanged == 0 {
		t.Fatal("no check said unchanged; the comparison is vacuous")
	}
	if fold.missed != 0 {
		t.Errorf("foldsNothing said changed for %d blocks optimizeBlockOnce gave back identical", fold.missed)
	}
	if rebal.missed*50 > rebal.checks {
		t.Errorf("rebalancesNothing said changed for %d of %d blocks reassociateBlock gave back identical (bound 2%%)", rebal.missed, rebal.checks)
	}

	for _, tc := range []struct {
		name        string
		fold, rebal bool // whether each pass's re-emission changes the block
		build       func(b *ir.Block)
	}{
		{"repeated constant", true, true, func(b *ir.Block) {
			b.NewStore("x", b.NewConst(5))
			b.NewStore("y", b.NewConst(5))
		}},
		{"repeated computation", true, true, func(b *ir.Block) {
			x, y := b.NewLoad("a"), b.NewLoad("b")
			b.NewStore("x", b.NewNode(ir.OpSub, x, y))
			b.NewStore("y", b.NewNode(ir.OpSub, x, y))
		}},
		{"load after load", true, true, func(b *ir.Block) {
			b.NewStore("x", b.NewLoad("a"))
			b.NewStore("y", b.NewLoad("a"))
		}},
		{"load after store", true, true, func(b *ir.Block) {
			b.NewStore("a", b.NewLoad("b"))
			b.NewStore("y", b.NewNode(ir.OpNeg, b.NewLoad("a")))
		}},
		{"constant fold", true, false, func(b *ir.Block) {
			b.NewStore("x", b.NewNode(ir.OpSub, b.NewConst(2), b.NewConst(3)))
		}},
		{"algebraic identity", true, false, func(b *ir.Block) {
			b.NewStore("x", b.NewNode(ir.OpShl, b.NewLoad("a"), b.NewConst(0)))
		}},
		{"double negation", true, false, func(b *ir.Block) {
			b.NewStore("x", b.NewNode(ir.OpNeg, b.NewNode(ir.OpNeg, b.NewLoad("a"))))
		}},
		{"commutative order", true, true, func(b *ir.Block) {
			x, y := b.NewLoad("a"), b.NewLoad("b")
			b.NewStore("x", b.NewNode(ir.OpAdd, y, x))
		}},
		{"dead node", true, true, func(b *ir.Block) {
			x := b.NewLoad("a")
			b.NewLoad("b")
			b.NewStore("x", x)
		}},
		{"sparse IDs", true, true, func(b *ir.Block) {
			x := b.NewLoad("a")
			b.NewStore("x", x)
			x.ID = 7
		}},
		{"chain of three", false, true, func(b *ir.Block) {
			xy := b.NewNode(ir.OpAdd, b.NewLoad("a"), b.NewLoad("b"))
			b.NewStore("x", b.NewNode(ir.OpAdd, xy, b.NewLoad("c")))
		}},
		{"constant before its user's load", false, true, func(b *ir.Block) {
			k := b.NewConst(5)
			b.NewStore("x", b.NewNode(ir.OpSub, b.NewLoad("a"), k))
		}},
		{"constant condition after the last node", false, true, func(b *ir.Block) {
			k := b.NewConst(1)
			b.NewStore("x", b.NewLoad("a"))
			b.Term, b.Cond, b.Succs = ir.TermBranch, k, []string{"t", "f"}
		}},
	} {
		b := ir.NewBlock("b")
		b.Term = ir.TermReturn
		tc.build(b)
		foldChanged, rebalChanged := put(tc.name, b)
		if foldChanged != tc.fold || rebalChanged != tc.rebal {
			t.Errorf("%s: re-emissions change the block (optimizeBlockOnce %v, reassociateBlock %v), want %v, %v",
				tc.name, foldChanged, rebalChanged, tc.fold, tc.rebal)
		}
	}
}

// TestOptimizeConcurrent runs Optimize on the same lowered functions
// from four goroutines. Each call has its own builder and check scratch,
// and results share blocks with the input, so every result must equal a
// serial run's; under -race, scratch shared between calls or a write
// into a shared input block is reported.
func TestOptimizeConcurrent(t *testing.T) {
	var fs []*ir.Func
	var want []string
	forEachCorpusFunc(t, 20, func(label string, f *ir.Func) {
		fs = append(fs, f)
		want = append(want, Optimize(f).String())
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, f := range fs {
				if got := Optimize(f).String(); got != want[i] {
					t.Errorf("function %d: concurrent Optimize differs from the serial run\ngot:\n%s\nwant:\n%s", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
