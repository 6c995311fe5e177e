package opt

import "aviv/internal/ir"

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

var reassociable = map[ir.Op]bool{
	ir.OpAdd: true,
	ir.OpMul: true,
	ir.OpAnd: true,
	ir.OpOr:  true,
	ir.OpXor: true,
}

// uses records how many nodes consume a node's value within its block,
// and the last of them (the only one when n == 1).
type uses struct {
	n    int
	user *ir.Node
}

// reassociateBlock returns a copy of the block with associative chains
// rebalanced.
func reassociateBlock(b *ir.Block) *ir.Block {
	users := make([]uses, b.IDBound()) // indexed by Node.ID
	for _, n := range b.Nodes {
		for _, a := range n.Args {
			users[a.ID].n++
			users[a.ID].user = n
		}
	}
	bb := ir.NewBuilder(b.Name)
	newOf := make([]*ir.Node, len(users))

	// get lazily materializes the new node for an old one, rebalancing
	// chain roots on the way.
	var get func(n *ir.Node) *ir.Node
	get = func(n *ir.Node) *ir.Node {
		if nn := newOf[n.ID]; nn != nil {
			return nn
		}
		var nn *ir.Node
		switch {
		case n.Op == ir.OpConst:
			nn = bb.Const(n.Const)
		case n.Op == ir.OpLoad:
			nn = bb.Load(n.Var)
		case reassociable[n.Op] && isChainRoot(n, users):
			leaves := chainLeaves(n, n.Op, users, true)
			args := make([]*ir.Node, len(leaves))
			for i, l := range leaves {
				args[i] = get(l)
			}
			nn = balanced(bb, n.Op, args)
		default:
			args := make([]*ir.Node, len(n.Args))
			for i, a := range n.Args {
				args[i] = get(a)
			}
			nn = bb.Op(n.Op, args...)
		}
		newOf[n.ID] = nn
		return nn
	}

	for _, n := range b.Nodes {
		switch n.Op {
		case ir.OpStore:
			bb.Store(n.Var, get(n.Args[0]))
		case ir.OpConst:
			// Materialized on demand (position-independent).
		case ir.OpLoad:
			// Pinned at its original position: materializing a load lazily
			// at its first user's position can move it past a store to the
			// same variable, where the builder forwards it to the stored
			// value instead of the value the original load read.
			get(n)
		default:
			get(n)
		}
	}
	var cond *ir.Node
	if b.Term == ir.TermBranch {
		cond = get(b.Cond)
	}
	bb.CopyTerm(b, cond)
	return bb.Finish()
}

// isChainRoot reports whether n heads a same-op chain (it is not itself a
// single-use operand of a same-op parent — that parent will absorb it).
func isChainRoot(n *ir.Node, users []uses) bool {
	u := users[n.ID]
	if u.n != 1 {
		return true
	}
	return u.user.Op != n.Op
}

// chainLeaves collects the operands of the maximal same-op chain rooted
// at n: single-use same-op children are absorbed recursively, everything
// else is a leaf.
func chainLeaves(n *ir.Node, op ir.Op, users []uses, isRoot bool) []*ir.Node {
	if n.Op != op || (!isRoot && users[n.ID].n != 1) {
		return []*ir.Node{n}
	}
	var out []*ir.Node
	for _, a := range n.Args {
		out = append(out, chainLeaves(a, op, users, false)...)
	}
	return out
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
