package ir

import "fmt"

// Builder constructs a block's expression DAG with hash-consing, so that
// structurally identical pure subexpressions are shared (local common
// subexpression elimination, a machine-independent optimization the
// paper's front end performs).
//
// Loads are value-numbered through the location's current value: a
// load after a store within the block reuses the stored value, and a
// repeated load reuses the first; stores replace the current value of
// their own location only.
type Builder struct {
	Block *Block

	memo map[memoKey]*Node
	// curVal maps a memory location to the node currently holding its
	// value within the block (last store value or first load).
	curVal map[string]*Node
	// live is Finish's scratch for the liveness marks, kept across
	// Resets.
	live []bool
}

// memoKey identifies one hash-consed value: a constant, or an operation
// over operand node IDs. Every operation takes at most two operands and
// its arity is fixed, so unused operand slots stay zero without
// ambiguity.
type memoKey struct {
	constant bool
	op       Op
	val      int64 // the constant's value
	args     [2]int
}

// NewBuilder returns a Builder targeting a fresh block with the given name.
func NewBuilder(name string) *Builder {
	bb := &Builder{
		memo:   make(map[memoKey]*Node),
		curVal: make(map[string]*Node),
	}
	bb.Reset(name)
	return bb
}

// Reset points the builder at a fresh block with the given name and
// forgets every value it has numbered; the maps keep their storage, so
// one builder can re-emit block after block. The new block's slabs are
// sized for the nodes and operands of the blocks in like together: the
// source blocks a re-emission copies from, which bound what it emits.
// Past that (or with no like), the slabs grow in chunks. The block the
// builder held before is left as it was.
func (bb *Builder) Reset(name string, like ...*Block) {
	nodes, args := 0, 0
	for _, b := range like {
		nodes += len(b.Nodes)
		for _, n := range b.Nodes {
			args += len(n.Args)
		}
	}
	bb.Block = NewBlock(name)
	bb.Block.reserve(nodes, args)
	clear(bb.memo)
	clear(bb.curVal)
}

// Const returns a (shared) constant node.
func (bb *Builder) Const(v int64) *Node {
	key := memoKey{constant: true, val: v}
	if n, ok := bb.memo[key]; ok {
		return n
	}
	n := bb.Block.NewConst(v)
	bb.memo[key] = n
	return n
}

// Load returns the node holding the current value of the named location,
// creating a load if needed.
func (bb *Builder) Load(name string) *Node {
	if n, ok := bb.curVal[name]; ok {
		return n
	}
	n := bb.Block.NewLoad(name)
	bb.curVal[name] = n
	return n
}

// Store appends a store of val to the named location.
func (bb *Builder) Store(name string, val *Node) *Node {
	n := bb.Block.NewStore(name, val)
	bb.curVal[name] = val
	return n
}

// Op returns a (shared) node computing op over args.
func (bb *Builder) Op(op Op, args ...*Node) *Node {
	if len(args) != op.Arity() {
		panic(fmt.Sprintf("ir.Builder: %v needs %d args, got %d", op, op.Arity(), len(args)))
	}
	// Canonicalize commutative operand order for better sharing.
	var swapped [2]*Node
	if op.Commutative() && len(args) == 2 && args[0].ID > args[1].ID {
		swapped = [2]*Node{args[1], args[0]}
		args = swapped[:]
	}
	key := opKey(op, args)
	if n, ok := bb.memo[key]; ok {
		return n
	}
	n := bb.Block.NewNode(op, args...)
	bb.memo[key] = n
	return n
}

func opKey(op Op, args []*Node) memoKey {
	key := memoKey{op: op}
	for i, a := range args {
		key.args[i] = a.ID
	}
	return key
}

// Convenience wrappers.

// Add returns a node computing a+b.
func (bb *Builder) Add(a, b *Node) *Node { return bb.Op(OpAdd, a, b) }

// Sub returns a node computing a-b.
func (bb *Builder) Sub(a, b *Node) *Node { return bb.Op(OpSub, a, b) }

// Mul returns a node computing a*b.
func (bb *Builder) Mul(a, b *Node) *Node { return bb.Op(OpMul, a, b) }

// Branch terminates the block with a conditional branch.
func (bb *Builder) Branch(cond *Node, ifTrue, ifFalse string) {
	bb.Block.Term = TermBranch
	bb.Block.Cond = cond
	bb.Block.Succs = []string{ifTrue, ifFalse}
}

// Jump terminates the block with an unconditional jump.
func (bb *Builder) Jump(target string) {
	bb.Block.Term = TermJump
	bb.Block.Succs = []string{target}
}

// Return terminates the block with a return.
func (bb *Builder) Return() {
	bb.Block.Term = TermReturn
	bb.Block.Succs = nil
}

// CopyTerm terminates the block as src is terminated: the same kind,
// src's successors, and cond (the re-emitted src.Cond) as the condition
// when src branches. The new block shares src's Succs slice: passes
// that retarget an edge assign a fresh slice instead of writing into
// it.
func (bb *Builder) CopyTerm(src *Block, cond *Node) {
	bb.Block.Term = src.Term
	bb.Block.Succs = src.Succs
	if src.Term == TermBranch {
		bb.Block.Cond = cond
	}
}

// Finish removes dead nodes and returns the built block.
func (bb *Builder) Finish() *Block {
	bb.live = bb.Block.removeDead(bb.live)
	return bb.Block
}
