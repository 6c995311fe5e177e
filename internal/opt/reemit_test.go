package opt

import (
	"sync"
	"testing"

	"aviv/internal/bench"
	"aviv/internal/ir"
	"aviv/internal/lang"
)

// reemitProperty puts blocks to both local passes and holds them to
// ir.Builder.Reemit's contract: a pass returns its input exactly when a
// forced re-emission is identical to it, and otherwise returns a block
// identical to the forced one. A forced re-emission is the pass run on
// renumbered(b). It counts the re-emissions that came back identical
// without being passed through.
type reemitProperty struct {
	tb     testing.TB
	e      emitter
	blocks int
	same   int // passes that gave their input back
	missed int // re-emissions identical to their input, not passed through
}

// renumbered returns a copy of b whose node IDs are one more than b's.
// Its first node's ID is not 0, so Reemit copies none of it and a pass
// re-emits it in full; a re-emission does not depend on its source's
// IDs, so that is the forced re-emission of b.
func renumbered(b *ir.Block) *ir.Block {
	c := ir.NewBlock(b.Name)
	newOf := make([]*ir.Node, b.IDBound())
	for _, n := range b.Nodes {
		var args []*ir.Node
		for _, a := range n.Args {
			args = append(args, newOf[a.ID])
		}
		nn := c.NewNode(n.Op, args...)
		nn.Const, nn.Var = n.Const, n.Var
		newOf[n.ID] = nn
	}
	for i, n := range b.Nodes {
		c.Nodes[i].ID = n.ID + 1
	}
	c.Term, c.Succs = b.Term, b.Succs
	if b.Cond != nil {
		c.Cond = newOf[b.Cond.ID]
	}
	return c
}

// put puts b to optimizeBlockOnce (dropping deadStores(b)) and to
// reassociateBlock, and reports whether each changed it.
func (p *reemitProperty) put(label string, b *ir.Block) (foldChanged, rebalChanged bool) {
	p.tb.Helper()
	fold := func(b *ir.Block) *ir.Block { return optimizeBlockOnce(&p.e, b, deadStores(b), nil) }
	rebal := func(b *ir.Block) *ir.Block { return reassociateBlock(&p.e, b) }
	return p.check(label, "optimizeBlockOnce", fold, b), p.check(label, "reassociateBlock", rebal, b)
}

func (p *reemitProperty) check(label, pass string, run func(*ir.Block) *ir.Block, b *ir.Block) bool {
	p.tb.Helper()
	p.blocks++
	before := b.Fingerprint()
	forced := run(renumbered(b))
	got := run(b)
	identical := forced.Fingerprint() == before
	switch {
	case b.Fingerprint() != before:
		p.tb.Fatalf("%s: %s wrote into its input %s", label, pass, b.Name)
	case got == b && !identical:
		p.tb.Fatalf("%s: %s passed block %s through, but a re-emission differs\nblock:\n%s\nre-emitted:\n%s", label, pass, b.Name, b, forced)
	case got == b:
		p.same++
	case identical:
		p.missed++
	case got.Fingerprint() != forced.Fingerprint():
		p.tb.Fatalf("%s: %s differs from a forced re-emission of block %s\nblock:\n%s\ngot:\n%s\nforced:\n%s", label, pass, b.Name, b, got, forced)
	}
	if err := got.Verify(); err != nil {
		p.tb.Fatalf("%s: %s: %v", label, pass, err)
	}
	return !identical
}

// walk puts every block the local passes see in f to both passes:
// lang.Lower's output and optimizeBlock's output in the first pass, and
// the second pass's inputs after the control-flow passes and
// optimizeBlock's output of them.
func (p *reemitProperty) walk(label string, f *ir.Func) {
	p.tb.Helper()
	out := &ir.Func{Name: f.Name}
	for _, b := range f.Blocks {
		ob := optimizeBlock(&p.e, b)
		p.put(label, b)
		p.put(label, ob)
		out.Blocks = append(out.Blocks, reassociateBlock(&p.e, ob))
	}
	foldBranches(&p.e, out)
	threadJumps(out)
	removeUnreachable(out)
	mergeBlocks(&p.e, out)
	for _, b := range out.Blocks {
		p.put(label, b)
		p.put(label, optimizeBlock(&p.e, b))
	}
}

// TestReemitPassesThrough holds the local passes to Reemit's contract
// (reemitProperty) over every block they see in the differential corpus,
// with no identical re-emission missed, and over hand-built blocks the
// corpus never hands them, one per way a re-emission can differ.
func TestReemitPassesThrough(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 10
	}
	p := &reemitProperty{tb: t, e: newEmitter()}
	forEachCorpusFunc(t, step, p.walk)
	t.Logf("%d blocks put to a pass: %d passed through, %d re-emitted identical", p.blocks, p.same, p.missed)
	if p.same == 0 || p.same == p.blocks {
		t.Fatal("every pass or none passed its block through; the comparison is vacuous")
	}
	if p.missed != 0 {
		t.Errorf("%d blocks re-emitted identical were not passed through", p.missed)
	}

	for _, tc := range []struct {
		name        string
		fold, rebal bool // whether each pass changes the block
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
		{"dead store", true, false, func(b *ir.Block) {
			x := b.NewLoad("a")
			b.NewStore("x", x)
			b.NewStore("x", x)
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
		{"condition on a jump", true, true, func(b *ir.Block) {
			x := b.NewLoad("a")
			b.NewStore("x", x)
			b.Term, b.Cond, b.Succs = ir.TermJump, x, []string{"t"}
		}},
		{"chain of three", false, true, func(b *ir.Block) {
			xy := b.NewNode(ir.OpAdd, b.NewLoad("a"), b.NewLoad("b"))
			b.NewStore("x", b.NewNode(ir.OpAdd, xy, b.NewLoad("c")))
		}},
		{"chain of three in balanced shape", false, false, func(b *ir.Block) {
			x, y, z := b.NewLoad("a"), b.NewLoad("b"), b.NewLoad("c")
			b.NewStore("x", b.NewNode(ir.OpAdd, x, b.NewNode(ir.OpAdd, y, z)))
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
		{"nothing to change", false, false, func(b *ir.Block) {
			x, k := b.NewLoad("a"), b.NewConst(3)
			c := b.NewNode(ir.OpCmpLT, x, k)
			b.NewStore("x", b.NewNode(ir.OpMul, x, k))
			b.Term, b.Cond, b.Succs = ir.TermBranch, c, []string{"t", "f"}
		}},
	} {
		b := ir.NewBlock("b")
		b.Term = ir.TermReturn
		tc.build(b)
		foldChanged, rebalChanged := p.put(tc.name, b)
		if foldChanged != tc.fold || rebalChanged != tc.rebal {
			t.Errorf("%s: passes change the block (optimizeBlockOnce %v, reassociateBlock %v), want %v, %v",
				tc.name, foldChanged, rebalChanged, tc.fold, tc.rebal)
		}
	}
	if p.missed != 0 {
		t.Errorf("%d hand-built blocks re-emitted identical were not passed through", p.missed)
	}
}

// FuzzReemit holds the local passes to Reemit's contract
// (reemitProperty) on every block they see in any program that parses
// and lowers.
func FuzzReemit(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		src, _ := bench.DiffProgram(seed, seed%2 == 1)
		f.Add(src)
		f.Add(bench.MultiBlockSource(seed, 4, 4))
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Parse(src)
		if err != nil {
			return
		}
		fn, err := lang.Lower(prog, "main")
		if err != nil {
			return
		}
		p := &reemitProperty{tb: t, e: newEmitter()}
		p.walk("fuzz", fn)
		if p.missed != 0 {
			t.Fatalf("%d blocks re-emitted identical were not passed through\n%s", p.missed, src)
		}
	})
}

// TestOptimizeConcurrent runs Optimize on the same lowered functions
// from four goroutines. Each call has its own builder and scratch,
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
