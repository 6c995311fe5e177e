package opt

import (
	"slices"

	"aviv/internal/ir"
)

// Reassociation: left-leaning chains of an associative, commutative
// operation (a+b+c+d built as ((a+b)+c)+d) serialize on any machine —
// dependence depth n-1. Rebalancing into a tree halves the depth and
// exposes the instruction-level parallelism the Split-Node DAG covering
// feeds on; this is part of the "machine independent parallelism"
// extraction the paper's front end performs (Sec. II).
//
// Only interior nodes with a single use are absorbed into a chain: a
// multiply-used subterm stays a chain leaf, so sharing (CSE) is never
// broken. Integer Add/Mul/And/Or/Xor are fully associative, so the
// rewrite is exact.

func reassociable(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor:
		return true
	}
	return false
}

// uses records how many nodes consume a node's value within its block,
// and the op of the last of them (the only one when n == 1).
type uses struct {
	n      int32
	userOp ir.Op
}

// reassociateBlock returns a copy of the block with associative chains
// rebalanced, emitted through e, or b itself when that changes nothing
// (ir.Builder.Reemit).
func reassociateBlock(e *emitter, b *ir.Block) *ir.Block {
	e.newNodes(b)
	e.users = slices.Grow(e.users[:0], len(e.newOf))[:len(e.newOf)]
	clear(e.users)
	for _, n := range b.Nodes {
		for _, a := range n.Args {
			e.users[a.ID].n++
			e.users[a.ID].userOp = n.Op
		}
	}
	e.Reemit(b)
	for _, n := range b.Nodes {
		switch n.Op {
		case ir.OpStore:
			e.Store(n.Var, e.get(n.Args[0]))
		case ir.OpConst:
			// Materialized on demand (position-independent).
		case ir.OpLoad:
			// Pinned at its original position: materializing a load lazily
			// at its first user's position can move it past a store to the
			// same variable, where the builder forwards it to the stored
			// value instead of the value the original load read.
			e.get(n)
		default:
			e.get(n)
		}
	}
	var cond *ir.Node
	if b.Term == ir.TermBranch {
		cond = e.get(b.Cond)
	}
	e.CopyTerm(b, cond)
	return e.Finish()
}

// get lazily materializes reassociateBlock's new node for an old one,
// rebalancing chain roots on the way.
func (e *emitter) get(n *ir.Node) *ir.Node {
	if nn := e.newOf[n.ID]; nn != nil {
		return nn
	}
	var nn *ir.Node
	switch {
	case n.Op == ir.OpConst:
		nn = e.Const(n.Const)
	case n.Op == ir.OpLoad:
		nn = e.Load(n.Var)
	case reassociable(n.Op) && isChainRoot(n, e.users):
		// The leaves go on the stack and are replaced by their new nodes
		// in place; a chain met on the way stacks its leaves above them
		// and takes them off again.
		s := len(e.leaves)
		e.leaves = chainLeaves(e.leaves, n, n.Op, e.users, true)
		for i := s; i < len(e.leaves); i++ {
			l := e.get(e.leaves[i])
			e.leaves[i] = l
		}
		nn = balanced(e.Builder, n.Op, e.leaves[s:])
		e.leaves = e.leaves[:s]
	default:
		var buf [2]*ir.Node
		args := buf[:0]
		for _, a := range n.Args {
			args = append(args, e.get(a))
		}
		nn = e.Op(n.Op, args...)
	}
	e.newOf[n.ID] = nn
	return nn
}

// isChainRoot reports whether n heads a same-op chain (it is not itself a
// single-use operand of a same-op parent — that parent will absorb it).
func isChainRoot(n *ir.Node, users []uses) bool {
	u := users[n.ID]
	if u.n != 1 {
		return true
	}
	return u.userOp != n.Op
}

// chainLeaves appends to dst the operands of the maximal same-op chain
// rooted at n: single-use same-op children are absorbed recursively,
// everything else is a leaf.
func chainLeaves(dst []*ir.Node, n *ir.Node, op ir.Op, users []uses, isRoot bool) []*ir.Node {
	if n.Op != op || (!isRoot && users[n.ID].n != 1) {
		return append(dst, n)
	}
	for _, a := range n.Args {
		dst = chainLeaves(dst, a, op, users, false)
	}
	return dst
}

// balanced emits a balanced tree combining args with op.
func balanced(bb *ir.Builder, op ir.Op, args []*ir.Node) *ir.Node {
	switch len(args) {
	case 1:
		return args[0]
	case 2:
		return bb.Op(op, args[0], args[1])
	}
	mid := len(args) / 2
	return bb.Op(op, balanced(bb, op, args[:mid]), balanced(bb, op, args[mid:]))
}
