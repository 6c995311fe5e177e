package ir

import (
	"fmt"
	"slices"
)

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

	// src is the block a Reemit copies, nil after a Reset. While Block
	// is nil, everything emitted is src's first matched nodes, handed
	// out as they are; termOK records that CopyTerm reproduced src's
	// terminator.
	src     *Block
	matched int
	termOK  bool
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
	bb.start(name, like...)
	bb.forget(nil)
}

// start points the builder at a fresh block sized as Reset says.
func (bb *Builder) start(name string, like ...*Block) {
	nodes, args := 0, 0
	for _, b := range like {
		nodes += len(b.Nodes)
		for _, n := range b.Nodes {
			args += len(n.Args)
		}
	}
	bb.Block = NewBlock(name)
	bb.Block.reserve(nodes, args)
}

// Reemit is Reset(src.Name, src) for a re-emission of src that may
// give src back as it was. While the emission matches src node for
// node (the same op, constant or variable and operands, with src's
// node at position i having ID i), the builder hands out src's own
// nodes, allocates nothing and leaves Block nil. At the first
// difference it copies the matched nodes, with their IDs, into a fresh
// block and goes on as after Reset; a node of src handed out before
// stands for its copy wherever it is passed back in, so callers that
// compare handed-out nodes compare their IDs. Finish returns src itself
// when the emission matched all of it, every node is live and CopyTerm
// reproduced its terminator. src is never written.
func (bb *Builder) Reemit(src *Block) {
	bb.Block = nil
	bb.forget(src)
}

// forget clears the numbered values and the Reemit state for src.
func (bb *Builder) forget(src *Block) {
	clear(bb.memo)
	clear(bb.curVal)
	bb.src, bb.matched, bb.termOK = src, 0, false
}

// own returns the block being built. While a Reemit still hands out
// src's nodes, it first copies them, and the terminator CopyTerm
// matched, into a fresh block.
func (bb *Builder) own() *Block {
	if bb.Block != nil {
		return bb.Block
	}
	src := bb.src
	bb.start(src.Name, src)
	for _, n := range src.Nodes[:bb.matched] {
		bb.add(n.Op, n.Const, n.Var, n.Args)
	}
	if bb.termOK {
		bb.Block.Term, bb.Block.Succs = src.Term, src.Succs
		if src.Cond != nil {
			bb.Block.Cond = bb.mapped(src.Cond)
		}
	}
	return bb.Block
}

// mapped returns the copy of n when n is a node of the Reemit source
// that own copied, and n otherwise.
func (bb *Builder) mapped(n *Node) *Node {
	if src := bb.src; src != nil && n.ID < bb.matched && src.Nodes[n.ID] == n {
		return bb.Block.Nodes[n.ID]
	}
	return n
}

// emit returns a node computing op over args with the given constant
// and variable: the Reemit source's next node when it is that node,
// otherwise a new node of the block. args is the caller's scratch.
func (bb *Builder) emit(op Op, c int64, v string, args []*Node) *Node {
	if bb.Block == nil {
		if i := bb.matched; i < len(bb.src.Nodes) {
			n := bb.src.Nodes[i]
			if n.ID == i && n.Op == op && n.Const == c && n.Var == v && slices.Equal(n.Args, args) {
				bb.matched++
				return n
			}
		}
	}
	return bb.add(op, c, v, args)
}

// add appends a node to the block, mapping its operands to their
// copies.
func (bb *Builder) add(op Op, c int64, v string, args []*Node) *Node {
	b := bb.own()
	var buf [2]*Node
	for i, a := range args {
		buf[i] = bb.mapped(a)
	}
	n := b.NewNode(op, buf[:len(args)]...)
	n.Const, n.Var = c, v
	return n
}

// Const returns a (shared) constant node.
func (bb *Builder) Const(v int64) *Node {
	key := memoKey{constant: true, val: v}
	if n, ok := bb.memo[key]; ok {
		return n
	}
	n := bb.emit(OpConst, v, "", nil)
	bb.memo[key] = n
	return n
}

// Load returns the node holding the current value of the named location,
// creating a load if needed.
func (bb *Builder) Load(name string) *Node {
	if n, ok := bb.curVal[name]; ok {
		return n
	}
	n := bb.emit(OpLoad, 0, name, nil)
	bb.curVal[name] = n
	return n
}

// Store appends a store of val to the named location.
func (bb *Builder) Store(name string, val *Node) *Node {
	n := bb.emit(OpStore, 0, name, []*Node{val})
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
	n := bb.emit(op, 0, "", args)
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
	b := bb.own()
	b.Term = TermBranch
	b.Cond = bb.mapped(cond)
	b.Succs = []string{ifTrue, ifFalse}
}

// Jump terminates the block with an unconditional jump.
func (bb *Builder) Jump(target string) {
	b := bb.own()
	b.Term = TermJump
	b.Succs = []string{target}
}

// Return terminates the block with a return.
func (bb *Builder) Return() {
	b := bb.own()
	b.Term = TermReturn
	b.Succs = nil
}

// CopyTerm terminates the block as src is terminated: the same kind,
// src's successors, and cond (the re-emitted src.Cond) as the condition
// when src branches. The new block shares src's Succs slice: passes
// that retarget an edge assign a fresh slice instead of writing into
// it.
func (bb *Builder) CopyTerm(src *Block, cond *Node) {
	if src.Term != TermBranch {
		cond = nil
	}
	if r := bb.src; bb.Block == nil && src.Term == r.Term && slices.Equal(src.Succs, r.Succs) && cond == r.Cond {
		bb.termOK = true
		return
	}
	b := bb.own()
	b.Term = src.Term
	b.Succs = src.Succs
	if cond != nil {
		b.Cond = bb.mapped(cond)
	}
}

// Finish removes dead nodes and returns the built block: the Reemit
// source itself when the emission reproduced all of it.
func (bb *Builder) Finish() *Block {
	if bb.Block == nil && bb.termOK && bb.matched == len(bb.src.Nodes) {
		bb.live = bb.src.LiveByID(bb.live)
		if !slices.Contains(bb.live, false) {
			return bb.src
		}
	}
	bb.live = bb.own().removeDead(bb.live)
	return bb.Block
}
