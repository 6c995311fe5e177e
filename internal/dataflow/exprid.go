package dataflow

import (
	"hash/maphash"
	"slices"

	"aviv/internal/ir"
)

// VarID names a memory variable of one function: IDs are dense from 0,
// in the order the variables first appear in a State kept across passes
// (see NewState) and in name order in a one-shot analysis.
type VarID int32

// NoVar is the VarID of no variable.
const NoVar VarID = -1

// ExprID names a value expression over a block's entry memory values:
// two nodes get the same ID exactly when ExprKey gives them the same
// key. IDs are dense from 0 in interning order.
type ExprID int32

// NoExpr is the ID of a node that has no expression key: a store, or a
// subtree deeper than maxExprDepth.
const NoExpr ExprID = -1

// Exprs interns the value expressions of one function's blocks and
// numbers the memory variables they read. It is ExprKey without the
// strings: each node's ID is built bottom-up, in Nodes order, from its
// op, its argument IDs (commutative pairs in canonical order), its
// constant and its variable's ID, so a DAG that shares a subexpression
// pays for it once.
//
// The zero value is not usable; a State makes one with newExprs.
type Exprs struct {
	vars []string // VarID -> name
	// varSlots is an open-addressing hash table over vars, laid out like
	// slots.
	varSlots []VarID

	// slots is an open-addressing hash table over info: each slot holds
	// an ExprID or NoExpr when empty. Its length is a power of two, at
	// least twice len(info).
	slots []ExprID
	info  []exprInfo
	// varLists holds every exprInfo's variable list back to back.
	varLists []VarID
}

// exprSig is the identity of an expression: only the fields ExprKey
// prints for the op take part (the constant of OpConst, the variable of
// OpLoad, the argument IDs of everything else).
type exprSig struct {
	op   ir.Op
	args [3]ExprID
	c    int64 // OpConst: the constant; OpLoad: the VarID
}

func (s *exprSig) hash() uint64 {
	h := uint64(s.op)
	for _, a := range s.args {
		h = (h ^ uint64(uint32(a))) * 0x100000001b3
	}
	h = (h ^ uint64(s.c)) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

type exprInfo struct {
	sig    exprSig
	height int32 // longest path to a leaf; leaves are 0
	// varLists[vars:vars+nvars] are the ascending variables the
	// expression reads.
	vars, nvars int32
	rep         *ir.Node // first node interned under this ID
}

// varSeed seeds the variable table's string hash. Hash values never
// leave the table, so IDs do not depend on it.
var varSeed = maphash.MakeSeed()

// newExprs returns an empty interner with room for about exprs
// expressions over vars variables.
func newExprs(exprs, vars int) *Exprs {
	x := &Exprs{vars: make([]string, 0, vars)}
	if exprs > 0 {
		x.info = make([]exprInfo, 0, exprs)
		x.varLists = make([]VarID, 0, 2*exprs)
		x.rehash(2 * exprs)
	}
	x.revar(2 * vars)
	return x
}

// Len returns the number of distinct expressions interned so far.
func (x *Exprs) Len() int { return len(x.info) }

// NumVars returns the number of variables numbered so far.
func (x *Exprs) NumVars() int { return len(x.vars) }

// varOf returns the ID of variable name, numbering it when it is new.
func (x *Exprs) varOf(name string) VarID {
	i, ok := x.findVar(name)
	if ok {
		return x.varSlots[i]
	}
	id := VarID(len(x.vars))
	x.vars = append(x.vars, name)
	x.varSlots[i] = id
	if 2*len(x.vars) > len(x.varSlots) {
		x.revar(2 * len(x.varSlots))
	}
	return id
}

// lookupVar returns the ID of variable name without numbering it.
func (x *Exprs) lookupVar(name string) (VarID, bool) {
	i, ok := x.findVar(name)
	return x.varSlots[i], ok
}

// findVar returns the slot of variable name, or the empty slot where it
// belongs when it has no ID.
func (x *Exprs) findVar(name string) (uint64, bool) {
	mask := uint64(len(x.varSlots) - 1)
	i := maphash.String(varSeed, name) & mask
	for ; x.varSlots[i] != NoVar; i = (i + 1) & mask {
		if x.vars[x.varSlots[i]] == name {
			return i, true
		}
	}
	return i, false
}

// revar rebuilds the variable table with at least n slots (and at least
// 64).
func (x *Exprs) revar(n int) {
	x.varSlots = newSlots[VarID](n, NoVar)
	for id, name := range x.vars {
		i, _ := x.findVar(name)
		x.varSlots[i] = VarID(id)
	}
}

// newSlots returns a power-of-two table of at least n slots (and at
// least 64), each set to empty.
func newSlots[T any](n int, empty T) []T {
	size := 64
	for size < n {
		size *= 2
	}
	slots := make([]T, size)
	for i := range slots {
		slots[i] = empty
	}
	return slots
}

// sortVars renumbers the variables in name order. It must run before
// the first expression is interned.
func (x *Exprs) sortVars() {
	slices.Sort(x.vars)
	x.revar(len(x.varSlots))
}

// VarName returns the name of variable v.
func (x *Exprs) VarName(v VarID) string { return x.vars[v] }

// keyBlock writes the expression ID of every node of b into ids, which
// must have length b.IDBound().
func (x *Exprs) keyBlock(b *ir.Block, ids []ExprID) {
	for _, n := range b.Nodes {
		ids[n.ID] = x.intern(n, ids)
	}
}

// intern returns n's ID given the IDs of the nodes before it.
func (x *Exprs) intern(n *ir.Node, ids []ExprID) ExprID {
	sig := exprSig{op: n.Op, args: [3]ExprID{NoExpr, NoExpr, NoExpr}}
	var height int32
	switch n.Op {
	case ir.OpStore:
		return NoExpr
	case ir.OpConst:
		sig.c = n.Const
	case ir.OpLoad:
		sig.c = int64(x.varOf(n.Var))
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
	if len(x.slots) == 0 {
		x.rehash(0)
	}
	mask := uint64(len(x.slots) - 1)
	i := sig.hash() & mask
	for ; x.slots[i] != NoExpr; i = (i + 1) & mask {
		if id := x.slots[i]; x.info[id].sig == sig {
			return id
		}
	}
	id := ExprID(len(x.info))
	x.slots[i] = id
	info := exprInfo{sig: sig, height: height, rep: n}
	switch n.Op {
	case ir.OpLoad:
		info.vars, info.nvars = int32(len(x.varLists)), 1
		x.varLists = append(x.varLists, VarID(sig.c))
	case ir.OpConst:
	default:
		info.vars, info.nvars = x.info[sig.args[0]].vars, x.info[sig.args[0]].nvars
		for _, a := range sig.args[1:len(n.Args)] {
			info.vars, info.nvars = x.mergeVars(info.vars, info.nvars, x.info[a].vars, x.info[a].nvars)
		}
	}
	x.info = append(x.info, info)
	if 2*len(x.info) > len(x.slots) {
		x.rehash(2 * len(x.slots))
	}
	return id
}

// rehash rebuilds the slot table with at least n slots (and at least
// 64).
func (x *Exprs) rehash(n int) {
	x.slots = newSlots(n, NoExpr)
	mask := uint64(len(x.slots) - 1)
	for id := range x.info {
		i := x.info[id].sig.hash() & mask
		for x.slots[i] != NoExpr {
			i = (i + 1) & mask
		}
		x.slots[i] = ExprID(id)
	}
}

// mergeVars returns the ascending union of two ascending variable lists
// of varLists (offset and length), sharing an input when it already is
// the union.
func (x *Exprs) mergeVars(ao, an, bo, bn int32) (int32, int32) {
	switch {
	case an == 0:
		return bo, bn
	case bn == 0:
		return ao, an
	}
	start := len(x.varLists)
	i, j := ao, bo
	for i < ao+an && j < bo+bn {
		u, v := x.varLists[i], x.varLists[j]
		switch {
		case u < v:
			i++
		case v < u:
			u = v
			j++
		default:
			i, j = i+1, j+1
		}
		x.varLists = append(x.varLists, u)
	}
	x.varLists = append(x.varLists, x.varLists[i:ao+an]...)
	x.varLists = append(x.varLists, x.varLists[j:bo+bn]...)
	k := int32(len(x.varLists) - start)
	switch k {
	case an:
		x.varLists = x.varLists[:start]
		return ao, an
	case bn:
		x.varLists = x.varLists[:start]
		return bo, bn
	}
	return int32(start), k
}

// Vars returns the ascending IDs of the variables expression id reads.
// The slice is shared; callers must not modify it.
func (x *Exprs) Vars(id ExprID) []VarID {
	in := &x.info[id]
	return x.varLists[in.vars : in.vars+in.nvars : in.vars+in.nvars]
}

// Height returns the length of the longest operand chain below id.
func (x *Exprs) Height(id ExprID) int { return int(x.info[id].height) }

// Rep returns the first node interned under expression id.
func (x *Exprs) Rep(id ExprID) *ir.Node { return x.info[id].rep }

// IsComputation reports whether expression id contains at least one
// operation — it is not a bare load or constant.
func (x *Exprs) IsComputation(id ExprID) bool { return !x.info[id].sig.op.IsLeaf() }
