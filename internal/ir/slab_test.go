package ir

import (
	"fmt"
	"strings"
	"testing"
)

// TestVerifyForeignOperandWithCollidingID pins the pointer check behind
// Verify's ID-indexed positions: an operand from another block whose ID
// names an earlier node of this block is still foreign.
func TestVerifyForeignOperandWithCollidingID(t *testing.T) {
	other := NewBlock("other")
	foreign := other.NewLoad("x") // n0 in other
	b := NewBlock("b")
	own := b.NewLoad("x") // n0 in b
	b.NewNode(OpAdd, own, foreign)
	if foreign.ID != own.ID {
		t.Fatalf("IDs %d and %d do not collide", foreign.ID, own.ID)
	}
	err := b.Verify()
	if err == nil || !strings.Contains(err.Error(), "uses operand n0 not in block") {
		t.Fatalf("Verify = %v, want a foreign-operand rejection", err)
	}

	// The same holds for a branch condition.
	c := NewBlock("c")
	c.NewLoad("y")
	c.Term, c.Cond, c.Succs = TermBranch, foreign, []string{"t", "f"}
	if err := c.Verify(); err == nil || !strings.Contains(err.Error(), "branch condition not in block") {
		t.Fatalf("Verify = %v, want a foreign-condition rejection", err)
	}
}

func TestVerifyRejectsDuplicateID(t *testing.T) {
	b := NewBlock("b")
	x := b.NewLoad("x")
	y := b.NewLoad("y")
	y.ID = x.ID
	if err := b.Verify(); err == nil || !strings.Contains(err.Error(), "duplicate ID") {
		t.Fatalf("Verify = %v, want a duplicate-ID rejection", err)
	}
}

// TestArgsAppendLeavesNeighboursAlone: nodes share the block's operand
// slab, so each node's Args is clipped to its own operands and an append
// to it must reallocate rather than write into the next node's slots.
func TestArgsAppendLeavesNeighboursAlone(t *testing.T) {
	b := NewBlock("b")
	x, y, z := b.NewLoad("x"), b.NewLoad("y"), b.NewLoad("z")
	first := b.NewNode(OpAdd, x, y)
	second := b.NewNode(OpSub, y, z)
	third := b.NewNode(OpNeg, x)
	if cap(first.Args) != len(first.Args) {
		t.Fatalf("Args cap %d, len %d: not clipped", cap(first.Args), len(first.Args))
	}
	grown := append(first.Args, z)
	grown[0] = z
	if second.Args[0] != y || second.Args[1] != z || third.Args[0] != x {
		t.Fatalf("append to one node's Args changed a neighbour: %v %v", second, third)
	}
	if first.Args[0] != x || first.Args[1] != y {
		t.Fatalf("append to Args changed the node itself: %v", first)
	}
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestNewNodeCopiesArgs: the caller's argument slice is not retained.
func TestNewNodeCopiesArgs(t *testing.T) {
	b := NewBlock("b")
	x, y := b.NewLoad("x"), b.NewLoad("y")
	args := []*Node{x, y}
	n := b.NewNode(OpAdd, args...)
	args[0] = y
	if n.Args[0] != x {
		t.Fatal("NewNode kept the caller's args slice")
	}
}

// chainSource returns a block of about 4n nodes: n loads feeding a
// chain of adds and multiplies, stored and branched on.
func chainSource(n int) *Block {
	bb := NewBuilder("src")
	acc := bb.Const(1)
	for i := 0; i < n; i++ {
		v := bb.Load(fmt.Sprintf("v%d", i))
		acc = bb.Mul(bb.Add(acc, v), bb.Const(int64(i+2)))
	}
	bb.Store("out", acc)
	bb.Branch(acc, "t", "f")
	return bb.Finish()
}

// reemit copies src into bb node by node, as the optimizer's passes do.
func reemit(bb *Builder, src *Block, newOf []*Node) *Block {
	bb.Reset(src.Name, src)
	for _, n := range src.Nodes {
		switch n.Op {
		case OpConst:
			newOf[n.ID] = bb.Const(n.Const)
		case OpLoad:
			newOf[n.ID] = bb.Load(n.Var)
		case OpStore:
			bb.Store(n.Var, newOf[n.Args[0].ID])
		default:
			var buf [2]*Node
			args := buf[:0]
			for _, a := range n.Args {
				args = append(args, newOf[a.ID])
			}
			newOf[n.ID] = bb.Op(n.Op, args...)
		}
	}
	bb.CopyTerm(src, newOf[src.Cond.ID])
	return bb.Finish()
}

// TestResetReemitAllocsConstant: re-emitting a block through a reset
// builder allocates per block (the block, its slabs, its successor
// list, the liveness marks of Finish), never per node.
func TestResetReemitAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		src := chainSource(n)
		newOf := make([]*Node, src.IDBound())
		bb := NewBuilder("")
		reemit(bb, src, newOf) // grow the builder's maps once
		var out *Block
		got := testing.AllocsPerRun(20, func() { out = reemit(bb, src, newOf) })
		if out.String() != src.String() {
			t.Fatalf("re-emitted block differs:\n%s\nwant:\n%s", out, src)
		}
		return got
	}
	small, large := allocs(4), allocs(200)
	t.Logf("allocations per re-emission: %v (4 links), %v (200 links)", small, large)
	if small != large {
		t.Errorf("re-emitting 200 links costs %v allocations, 4 links %v: want the same", large, small)
	}
	if large > 8 {
		t.Errorf("re-emission costs %v allocations, want at most 8", large)
	}
}
