package ir

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Node is a vertex of a basic-block expression DAG.
//
// A node is uniquely identified within its block by ID. Args point at the
// operand nodes; a node may have many users (it is a DAG, not a tree, so
// common subexpressions are shared).
type Node struct {
	ID   int
	Op   Op
	Args []*Node

	// Const holds the constant value of an OpConst node.
	Const int64
	// Var holds the memory location name of an OpLoad or OpStore node.
	Var string
}

func (n *Node) String() string {
	switch n.Op {
	case OpConst:
		return fmt.Sprintf("n%d:CONST(%d)", n.ID, n.Const)
	case OpLoad:
		return fmt.Sprintf("n%d:LOAD(%s)", n.ID, n.Var)
	case OpStore:
		return fmt.Sprintf("n%d:STORE(%s)<-n%d", n.ID, n.Var, n.Args[0].ID)
	default:
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			parts[i] = fmt.Sprintf("n%d", a.ID)
		}
		return fmt.Sprintf("n%d:%s(%s)", n.ID, n.Op, strings.Join(parts, ","))
	}
}

// TermKind distinguishes block terminators.
type TermKind uint8

// Block terminator kinds.
const (
	TermNone   TermKind = iota // fallthrough to Succs[0] (or function end)
	TermJump                   // unconditional jump to Succs[0]
	TermBranch                 // conditional: Cond != 0 -> Succs[0], else Succs[1]
	TermReturn                 // function return
)

func (k TermKind) String() string {
	switch k {
	case TermNone:
		return "fallthrough"
	case TermJump:
		return "jump"
	case TermBranch:
		return "branch"
	case TermReturn:
		return "return"
	}
	return "term?"
}

// Block is a basic block: an expression DAG plus a terminator.
//
// Nodes is maintained in a topological order (operands before users).
// Roots are the nodes whose values escape the block: stores and the branch
// condition. Everything not reachable from a root is dead.
//
// A block owns the storage of its nodes: NewNode hands out Nodes from a
// per-block node slab and their Args from a per-block operand slab, so
// building a block allocates per chunk, not per node. Args are never
// mutated after construction. A Block must not be copied by value: the
// copy would share the slabs' free space with the original, and both
// would hand out the same slots.
type Block struct {
	Name  string
	Nodes []*Node

	Term  TermKind
	Cond  *Node    // branch condition (TermBranch only)
	Succs []string // successor block names

	nextID int

	// slab and argSlab hold the nodes and operand slots NewNode hands
	// out; the free space is between len and cap.
	slab    []Node
	argSlab []*Node
}

// NewBlock returns an empty block with the given name.
func NewBlock(name string) *Block {
	return &Block{Name: name}
}

// WithSuccs returns a new block with b's name, nodes and terminator and
// the successors succs, leaving b as it was. The two blocks share their
// nodes, so neither may renumber or drop nodes in place afterwards
// (RemoveDead, Renumber). The new block's slabs are clipped to their
// length: a node added to it is allocated afresh, never in b's free slab
// space.
func (b *Block) WithSuccs(succs []string) *Block {
	return &Block{
		Name:    b.Name,
		Nodes:   slices.Clip(b.Nodes),
		Term:    b.Term,
		Cond:    b.Cond,
		Succs:   succs,
		nextID:  b.nextID,
		slab:    slices.Clip(b.slab),
		argSlab: slices.Clip(b.argSlab),
	}
}

// reserve sizes the block's slabs for the given numbers of nodes and
// operands, so a block re-emitted from a source of that size allocates
// each slab once.
func (b *Block) reserve(nodes, args int) {
	if nodes > 0 {
		b.Nodes = make([]*Node, 0, nodes)
		b.slab = make([]Node, 0, nodes)
	}
	if args > 0 {
		b.argSlab = make([]*Node, 0, args)
	}
}

// chunk is the size of the slab allocated when the reserved space runs
// out: half the block again, at least 4 and at least need.
func (b *Block) chunk(need int) int {
	return max(4, len(b.Nodes)/2, need)
}

// NewNode appends a fresh node with the given op and args to the block and
// returns it. Operands must already belong to the block, which keeps Nodes
// topologically ordered by construction. args is copied into the block's
// operand slab; the node's Args slice is clipped to its length, so an
// append to it reallocates instead of overwriting a neighbour's operands.
func (b *Block) NewNode(op Op, args ...*Node) *Node {
	if len(b.slab) == cap(b.slab) {
		b.slab = make([]Node, 0, b.chunk(1))
	}
	b.slab = b.slab[:len(b.slab)+1]
	n := &b.slab[len(b.slab)-1]
	n.ID = b.nextID
	n.Op = op
	if k := len(args); k > 0 {
		if cap(b.argSlab)-len(b.argSlab) < k {
			b.argSlab = make([]*Node, 0, b.chunk(k))
		}
		start := len(b.argSlab)
		b.argSlab = append(b.argSlab, args...)
		n.Args = b.argSlab[start : start+k : start+k]
	}
	b.nextID++
	b.Nodes = append(b.Nodes, n)
	return n
}

// NewConst appends a constant node.
func (b *Block) NewConst(v int64) *Node {
	n := b.NewNode(OpConst)
	n.Const = v
	return n
}

// NewLoad appends a load of the named memory location.
func (b *Block) NewLoad(name string) *Node {
	n := b.NewNode(OpLoad)
	n.Var = name
	return n
}

// NewStore appends a store of val to the named memory location.
func (b *Block) NewStore(name string, val *Node) *Node {
	n := b.NewNode(OpStore, val)
	n.Var = name
	return n
}

// Roots returns the nodes whose values escape the block: all stores, plus
// the branch condition if any.
func (b *Block) Roots() []*Node {
	var roots []*Node
	for _, n := range b.Nodes {
		if n.Op == OpStore {
			roots = append(roots, n)
		}
	}
	if b.Term == TermBranch && b.Cond != nil {
		roots = append(roots, b.Cond)
	}
	return roots
}

// Users returns a map from node to the nodes that consume its value
// within the block.
func (b *Block) Users() map[*Node][]*Node {
	users := make(map[*Node][]*Node, len(b.Nodes))
	for _, n := range b.Nodes {
		for _, a := range n.Args {
			users[a] = append(users[a], n)
		}
	}
	return users
}

// IDBound returns one more than the largest node ID in the block: the
// length of a slice indexed by Node.ID. Node IDs are unique within a
// block and dense after Renumber, so such slices replace maps keyed by
// node pointer.
func (b *Block) IDBound() int {
	bound := 0
	for _, n := range b.Nodes {
		if n.ID >= bound {
			bound = n.ID + 1
		}
	}
	return bound
}

// LiveByID marks the nodes reachable from the block's roots, indexed by
// Node.ID (the slice has length IDBound), writing the marks into buf's
// storage when it is large enough (buf may be nil). Operands outside
// that range are not block nodes (Verify rejects them) and are not
// marked.
func (b *Block) LiveByID(buf []bool) []bool {
	bound := b.IDBound()
	live := slices.Grow(buf[:0], bound)[:bound]
	clear(live)
	var mark func(*Node)
	mark = func(n *Node) {
		if n.ID >= len(live) || live[n.ID] {
			return
		}
		live[n.ID] = true
		for _, a := range n.Args {
			mark(a)
		}
	}
	for _, n := range b.Nodes {
		if n.Op == OpStore {
			mark(n)
		}
	}
	if b.Term == TermBranch && b.Cond != nil {
		mark(b.Cond)
	}
	return live
}

// RemoveDead drops nodes not reachable from any root and renumbers the
// remaining nodes densely in topological order.
func (b *Block) RemoveDead() {
	b.removeDead(nil)
}

// removeDead is RemoveDead keeping its liveness marks in buf's storage
// when it is large enough; it returns the marks' slice for reuse.
func (b *Block) removeDead(buf []bool) []bool {
	live := b.LiveByID(buf)
	kept := b.Nodes[:0]
	for _, n := range b.Nodes {
		if live[n.ID] {
			kept = append(kept, n)
		}
	}
	clear(b.Nodes[len(kept):])
	b.Nodes = kept
	b.Renumber()
	return live
}

// Renumber assigns dense IDs following the current Nodes order.
func (b *Block) Renumber() {
	for i, n := range b.Nodes {
		n.ID = i
	}
	b.nextID = len(b.Nodes)
}

// Verify checks structural invariants: arity, topological order, operand
// membership, unique node IDs, and terminator consistency. It returns the
// first violation.
func (b *Block) Verify() error {
	// at[id] is one more than the position of the node with that ID
	// among the nodes checked so far, 0 when there is none. An operand
	// is in the block (and defined earlier) only if it is the very node
	// at its ID's position: a foreign node may share the ID.
	at := make([]int32, b.IDBound())
	has := func(a *Node) bool {
		return a.ID >= 0 && a.ID < len(at) && at[a.ID] != 0 && b.Nodes[at[a.ID]-1] == a
	}
	for i, n := range b.Nodes {
		if got, want := len(n.Args), n.Op.Arity(); got != want {
			return fmt.Errorf("block %s: %v has %d args, want %d", b.Name, n, got, want)
		}
		for _, a := range n.Args {
			if !has(a) {
				return fmt.Errorf("block %s: %v uses operand n%d not in block", b.Name, n, a.ID)
			}
		}
		if n.ID < 0 || at[n.ID] != 0 {
			return fmt.Errorf("block %s: %v has a negative or duplicate ID", b.Name, n)
		}
		at[n.ID] = int32(i + 1)
	}
	switch b.Term {
	case TermBranch:
		if b.Cond == nil {
			return fmt.Errorf("block %s: branch without condition", b.Name)
		}
		if !has(b.Cond) {
			return fmt.Errorf("block %s: branch condition not in block", b.Name)
		}
		if len(b.Succs) != 2 {
			return fmt.Errorf("block %s: branch with %d successors, want 2", b.Name, len(b.Succs))
		}
	case TermJump:
		if len(b.Succs) != 1 {
			return fmt.Errorf("block %s: jump with %d successors, want 1", b.Name, len(b.Succs))
		}
	case TermReturn:
		if len(b.Succs) != 0 {
			return fmt.Errorf("block %s: return with successors", b.Name)
		}
	case TermNone:
		if len(b.Succs) > 1 {
			return fmt.Errorf("block %s: fallthrough with %d successors", b.Name, len(b.Succs))
		}
	}
	return nil
}

// Levels returns, for every node, its level from the top (distance from a
// DAG root going down) and from the bottom (height above the leaves).
// Leaves have bottom level 0; roots have top level 0. These drive the
// clique-reduction heuristic of Sec. IV-C.2.
func (b *Block) Levels() (fromTop, fromBottom map[*Node]int) {
	fromBottom = make(map[*Node]int, len(b.Nodes))
	for _, n := range b.Nodes { // topological order: operands first
		h := 0
		for _, a := range n.Args {
			if fa := fromBottom[a] + 1; fa > h {
				h = fa
			}
		}
		fromBottom[n] = h
	}
	fromTop = make(map[*Node]int, len(b.Nodes))
	users := b.Users()
	for i := len(b.Nodes) - 1; i >= 0; i-- {
		n := b.Nodes[i]
		d := 0
		for _, u := range users[n] {
			if du := fromTop[u] + 1; du > d {
				d = du
			}
		}
		fromTop[n] = d
	}
	return fromTop, fromBottom
}

// Vars returns the sorted set of memory location names the block reads or
// writes.
func (b *Block) Vars() []string {
	set := make(map[string]bool)
	for _, n := range b.Nodes {
		if n.Op == OpLoad || n.Op == OpStore {
			set[n.Var] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "block %s:\n", b.Name)
	for _, n := range b.Nodes {
		fmt.Fprintf(&sb, "  %s\n", n)
	}
	switch b.Term {
	case TermBranch:
		fmt.Fprintf(&sb, "  branch n%d ? %s : %s\n", b.Cond.ID, b.Succs[0], b.Succs[1])
	case TermJump:
		fmt.Fprintf(&sb, "  jump %s\n", b.Succs[0])
	case TermReturn:
		fmt.Fprintf(&sb, "  return\n")
	default:
		if len(b.Succs) == 1 {
			fmt.Fprintf(&sb, "  fallthrough %s\n", b.Succs[0])
		}
	}
	return sb.String()
}

// Func is a collection of basic blocks connected by control flow.
type Func struct {
	Name   string
	Blocks []*Block // Blocks[0] is the entry
}

// Block returns the block with the given name, or nil.
func (f *Func) Block(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Entry returns the entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Verify checks every block and that all successor names resolve.
func (f *Func) Verify() error {
	names := make(map[string]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		if names[b.Name] {
			return fmt.Errorf("func %s: duplicate block %s", f.Name, b.Name)
		}
		names[b.Name] = true
	}
	for _, b := range f.Blocks {
		if err := b.Verify(); err != nil {
			return err
		}
		for _, s := range b.Succs {
			if !names[s] {
				return fmt.Errorf("func %s: block %s has unknown successor %s", f.Name, b.Name, s)
			}
		}
	}
	return nil
}

func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s:\n", f.Name)
	for _, b := range f.Blocks {
		sb.WriteString(b.String())
	}
	return sb.String()
}
