package dataflow

import (
	"aviv/internal/ir"
)

// ExprID names a value expression over a block's entry memory values:
// two nodes get the same ID exactly when ExprKey gives them the same
// key. IDs are dense from 0 in interning order.
type ExprID int32

// NoExpr is the ID of a node that has no expression key: a store, or a
// subtree deeper than maxExprDepth.
const NoExpr ExprID = -1

// Exprs interns the value expressions of one function's blocks. It is
// ExprKey without the strings: each node's ID is built bottom-up, in
// Nodes order, from its op, its argument IDs (commutative pairs in
// canonical order), its constant and its variable, so a DAG that shares
// a subexpression pays for it once. One Exprs can serve every round of
// a whole-function optimization: Block keys a block again only when the
// function holds a different block at that index.
//
// The zero value is not usable; call NewExprs.
type Exprs struct {
	ids    map[exprSig]ExprID
	info   []exprInfo
	blocks []keyedBlock // per block index: the block last keyed there
}

// exprSig is the identity of an expression: only the fields ExprKey
// prints for the op take part (the constant of OpConst, the variable of
// OpLoad, the argument IDs of everything else).
type exprSig struct {
	op   ir.Op
	args [3]ExprID
	c    int64
	v    string
}

type exprInfo struct {
	op     ir.Op
	height int      // longest path to a leaf; leaves are 0
	vars   []string // sorted variables the expression reads
	rep    *ir.Node // first node interned under this ID
}

type keyedBlock struct {
	b   *ir.Block
	ids []ExprID
}

// NewExprs returns an empty interner.
func NewExprs() *Exprs { return &Exprs{ids: make(map[exprSig]ExprID)} }

// Len returns the number of distinct expressions interned so far.
func (x *Exprs) Len() int { return len(x.info) }

// Block returns the expression ID of every node of b, indexed by
// Node.ID (NoExpr for stores and over-deep subtrees), where b is block i
// of the function. The result is cached per index and reused while the
// function holds the same block there, so a block must not be modified
// in place once keyed (the optimizer replaces blocks, never edits
// them); callers must not modify the result.
func (x *Exprs) Block(i int, b *ir.Block) []ExprID {
	for len(x.blocks) <= i {
		x.blocks = append(x.blocks, keyedBlock{})
	}
	if kb := x.blocks[i]; kb.b == b {
		return kb.ids
	}
	ids := make([]ExprID, b.IDBound())
	for _, n := range b.Nodes {
		ids[n.ID] = x.intern(n, ids)
	}
	x.blocks[i] = keyedBlock{b, ids}
	return ids
}

// intern returns n's ID given the IDs of the nodes before it.
func (x *Exprs) intern(n *ir.Node, ids []ExprID) ExprID {
	sig := exprSig{op: n.Op, args: [3]ExprID{NoExpr, NoExpr, NoExpr}}
	height := 0
	switch n.Op {
	case ir.OpStore:
		return NoExpr
	case ir.OpConst:
		sig.c = n.Const
	case ir.OpLoad:
		sig.v = n.Var
	default:
		if len(n.Args) > len(sig.args) {
			return NoExpr // no IR op has more operands
		}
		for j, a := range n.Args {
			id := ids[a.ID]
			if id == NoExpr {
				return NoExpr
			}
			sig.args[j] = id
			height = max(height, x.info[id].height+1)
		}
		// ExprKey stops at depth maxExprDepth: a tree whose deepest leaf
		// lies below it has no key.
		if height > maxExprDepth {
			return NoExpr
		}
		if n.Op.Commutative() && len(n.Args) == 2 && sig.args[1] < sig.args[0] {
			sig.args[0], sig.args[1] = sig.args[1], sig.args[0]
		}
	}
	if id, ok := x.ids[sig]; ok {
		return id
	}
	id := ExprID(len(x.info))
	x.ids[sig] = id
	info := exprInfo{op: n.Op, height: height, rep: n}
	switch n.Op {
	case ir.OpLoad:
		info.vars = []string{n.Var}
	case ir.OpConst:
	default:
		for _, a := range sig.args[:len(n.Args)] {
			info.vars = mergeVars(info.vars, x.info[a].vars)
		}
	}
	x.info = append(x.info, info)
	return id
}

// mergeVars returns the sorted union of two sorted variable lists,
// sharing an input when it already is the union.
func mergeVars(a, b []string) []string {
	switch {
	case len(a) == 0:
		return b
	case len(b) == 0:
		return a
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(append(out, a[i:]...), b[j:]...)
	if len(out) == len(a) {
		return a
	}
	if len(out) == len(b) {
		return b
	}
	return out
}

// Vars returns the sorted variables expression id reads. The slice is
// shared; callers must not modify it.
func (x *Exprs) Vars(id ExprID) []string { return x.info[id].vars }

// Height returns the length of the longest operand chain below id.
func (x *Exprs) Height(id ExprID) int { return x.info[id].height }

// IsComputation reports whether expression id contains at least one
// operation — it is not a bare load or constant.
func (x *Exprs) IsComputation(id ExprID) bool { return !x.info[id].op.IsLeaf() }
