package dataflowtest

import (
	"testing"

	"aviv/internal/ir"
)

func liveTestFunc() *ir.Func {
	// entry: t = a+b; out = 1; branch c ? left : right
	// left:  t = 0; return          (t dead across entry->left)
	// right: u = t; return          (t live across entry->right)
	e := ir.NewBlock("entry")
	e.NewStore("t", e.NewNode(ir.OpAdd, e.NewLoad("a"), e.NewLoad("b")))
	e.NewStore("out", e.NewConst(1))
	e.Term = ir.TermBranch
	e.Cond = e.NewLoad("c")
	e.Succs = []string{"left", "right"}
	l := ir.NewBlock("left")
	l.NewStore("t", l.NewConst(0))
	l.Term = ir.TermReturn
	r := ir.NewBlock("right")
	r.NewStore("u", r.NewLoad("t"))
	r.Term = ir.TermReturn
	return &ir.Func{Name: "lt", Blocks: []*ir.Block{e, l, r}}
}

func TestLiveOutSets(t *testing.T) {
	f := liveTestFunc()
	outs := LiveOutSets(f)
	// t is read on the right path, so it is live out of entry.
	if !outs[0]["t"] {
		t.Errorf("t not live out of entry: %v", outs[0])
	}
	// Everything is live at exit blocks (observable final memory).
	for _, v := range []string{"a", "b", "c", "t", "u", "out"} {
		if !outs[1][v] || !outs[2][v] {
			t.Errorf("%s not live at an exit block: left=%v right=%v", v, outs[1], outs[2])
		}
	}
}

func TestCheckPrune(t *testing.T) {
	// Original block stores t then out; t is dead past the block.
	b := ir.NewBlock("entry")
	b.NewStore("t", b.NewNode(ir.OpAdd, b.NewLoad("a"), b.NewLoad("b")))
	b.NewStore("out", b.NewConst(1))
	b.Term = ir.TermReturn
	liveOut := map[string]bool{"a": true, "b": true, "out": true}

	good := ir.NewBlock("entry")
	good.NewStore("out", good.NewConst(1))
	good.Term = ir.TermReturn
	if err := CheckPrune(b, good, liveOut); err != nil {
		t.Errorf("correct prune flagged: %v", err)
	}

	// Pruning the live store instead must be flagged.
	bad := ir.NewBlock("entry")
	bad.NewStore("t", bad.NewNode(ir.OpAdd, bad.NewLoad("a"), bad.NewLoad("b")))
	bad.Term = ir.TermReturn
	if err := CheckPrune(b, bad, liveOut); err == nil {
		t.Error("pruning the live store of out was not flagged")
	}

	// Changing a surviving store's value must be flagged.
	tampered := ir.NewBlock("entry")
	tampered.NewStore("out", tampered.NewConst(2))
	tampered.Term = ir.TermReturn
	if err := CheckPrune(b, tampered, liveOut); err == nil {
		t.Error("changed store value was not flagged")
	}

	// Cascade: a load feeding only a dead store dies with it, exposing
	// the earlier store of the same variable as dead too.
	casc := ir.NewBlock("entry")
	casc.NewStore("x", casc.NewConst(3))
	casc.NewStore("y", casc.NewNode(ir.OpAdd, casc.NewLoad("x"), casc.NewConst(1)))
	casc.NewStore("out", casc.NewConst(7))
	casc.Term = ir.TermReturn
	cascPruned := ir.NewBlock("entry")
	cascPruned.NewStore("out", cascPruned.NewConst(7))
	cascPruned.Term = ir.TermReturn
	cLive := map[string]bool{"out": true}
	if err := CheckPrune(casc, cascPruned, cLive); err != nil {
		t.Errorf("correct cascading prune flagged: %v", err)
	}
}
