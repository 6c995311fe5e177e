package opt

import (
	"slices"

	"aviv/internal/ir"
)

// A local pass on a block it leaves as it is still pays for a full
// re-emission: new slabs, a hash-consing walk and a liveness sweep. Most
// blocks are such blocks: lang.Lower builds through the same
// hash-consing builder, so its blocks are already forwarded and in
// canonical order and seldom hold anything to fold, and a second local
// pass mostly meets blocks the first one emitted. check decides,
// without building anything, whether a
// pass's re-emission would give back exactly the block it was handed:
// the same nodes in the same order, the same Node.IDs, operands and
// terminator. localPass then passes the block on instead.
//
// The checks model ir.Builder and the passes' emitters exactly: every
// condition under which a re-emission could differ makes them say
// "changed". They can only err the other way, costing a re-emission
// that comes back identical; TestChecksAreExact bounds how often.
// Blocks are taken as ir's constructors build them (Block.Verify holds,
// and no node carries a field its op does not use).

// check is the scratch of the checks. optimizeLocal makes one per
// Optimize call and hands it down with the builder; it is never shared
// between calls.
type check struct {
	// vars holds the locations loaded or stored so far: a later load of
	// one is forwarded by ir.Builder.Load.
	vars map[string]struct{}
	// vals holds the constants and computations emitted so far: a later
	// equal one is hash-consed onto it.
	vals map[valKey]struct{}
	// uses[id] counts the operand slots that reference node id.
	uses []int32
}

// valKey identifies a value as ir.Builder's hash-consing does: a
// constant by its value, a computation by its op and operand IDs.
type valKey struct {
	op   ir.Op
	val  int64
	args [2]int
}

func newCheck() *check {
	return &check{vars: make(map[string]struct{}), vals: make(map[valKey]struct{})}
}

// foldsNothing reports whether optimizeBlockOnce with nothing to drop
// or replace would return a block identical to b. It is false when
// re-emitting b would hash-cons a repeated constant or computation,
// forward a load of a location already loaded or stored in b, apply a
// simplify rule, swap a commutative pair's operands, drop a dead node or
// renumber the nodes.
func (c *check) foldsNothing(b *ir.Block) bool {
	if !c.begin(b) {
		return false
	}
	for _, n := range b.Nodes {
		switch n.Op {
		case ir.OpConst:
			if !c.addConst(n) {
				return false
			}
		case ir.OpLoad:
			if !c.addLoad(n) {
				return false
			}
		case ir.OpStore:
			c.vars[n.Var] = struct{}{}
		default:
			if r, _ := simplify(n.Op, n.Args); r != keep || !c.addOp(n) {
				return false
			}
		}
	}
	return true
}

// rebalancesNothing reports whether reassociateBlock would return a
// block identical to b. Beyond foldsNothing's builder conditions (less
// the folding, which reassociation does not do), it is false when a
// chain has three or more leaves, and when the order in which
// reassociateBlock materializes nodes differs from b's: constants are
// emitted by their first user, so each must directly precede it. The
// chain rule is conservative: a chain already in balanced() shape is
// rebuilt as it was, but is still reported changed.
func (c *check) rebalancesNothing(b *ir.Block) bool {
	if !c.begin(b) {
		return false
	}
	// next is the ID the builder gives the next node it emits; while the
	// emission matches b, the nodes below it are exactly those emitted.
	next := 0
	emitConst := func(a *ir.Node) bool {
		if a.Op != ir.OpConst || a.ID < next {
			return true
		}
		next++
		return a.ID == next-1 && c.addConst(a)
	}
	for _, n := range b.Nodes {
		if n.Op == ir.OpConst {
			continue
		}
		chain := reassociable[n.Op]
		for _, a := range n.Args {
			if chain && a.Op == n.Op && c.uses[a.ID] == 1 {
				return false // a chain interior: the root's chain is rebalanced
			}
			if !emitConst(a) {
				return false
			}
		}
		if n.ID != next {
			return false
		}
		next++
		switch n.Op {
		case ir.OpLoad:
			if !c.addLoad(n) {
				return false
			}
		case ir.OpStore:
			c.vars[n.Var] = struct{}{}
		default:
			if !c.addOp(n) {
				return false
			}
		}
	}
	if b.Term == ir.TermBranch && !emitConst(b.Cond) {
		return false
	}
	return next == len(b.Nodes)
}

// begin resets the scratch for b, counts operand uses, and checks what
// both passes need to give b back: IDs dense in block order, a
// terminator ir.Builder.CopyTerm reproduces, and no dead node for
// ir.Builder.Finish to drop.
func (c *check) begin(b *ir.Block) bool {
	clear(c.vars)
	clear(c.vals)
	c.uses = slices.Grow(c.uses[:0], len(b.Nodes))[:len(b.Nodes)]
	clear(c.uses)
	for i, n := range b.Nodes {
		if n.ID != i {
			return false
		}
		for _, a := range n.Args {
			c.uses[a.ID]++
		}
	}
	var cond *ir.Node
	switch {
	case b.Term == ir.TermBranch:
		cond = b.Cond
	case b.Cond != nil:
		return false // CopyTerm keeps a condition only for a branch
	}
	// A node is dead exactly when it, or a dead node above it, has no
	// use and is no root: a dead node's users are dead, so following
	// them ends at one with no use.
	for _, n := range b.Nodes {
		if c.uses[n.ID] == 0 && n.Op != ir.OpStore && n != cond {
			return false
		}
	}
	return true
}

// addConst records constant n, reporting false when an earlier
// constant has its value.
func (c *check) addConst(n *ir.Node) bool {
	return c.add(valKey{op: ir.OpConst, val: n.Const})
}

// addLoad records load n, reporting false when its location was loaded
// or stored earlier in the block.
func (c *check) addLoad(n *ir.Node) bool {
	if _, ok := c.vars[n.Var]; ok {
		return false
	}
	c.vars[n.Var] = struct{}{}
	return true
}

// addOp records computation n, reporting false when ir.Builder.Op would
// not emit it as it is: its commutative operands are out of canonical
// order, or an earlier node applies the same op to the same operands.
func (c *check) addOp(n *ir.Node) bool {
	if n.Op.Commutative() && len(n.Args) == 2 && n.Args[0].ID > n.Args[1].ID {
		return false
	}
	k := valKey{op: n.Op}
	for i, a := range n.Args {
		k.args[i] = a.ID
	}
	return c.add(k)
}

func (c *check) add(k valKey) bool {
	if _, ok := c.vals[k]; ok {
		return false
	}
	c.vals[k] = struct{}{}
	return true
}
