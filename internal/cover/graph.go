package cover

import (
	"fmt"
	"slices"

	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sndag"
)

// graph is the solution graph for one functional-unit assignment: the
// operation nodes on their assigned units plus all required data-transfer
// nodes (Sec. IV-B), connected by value dependences and memory-ordering
// edges.
type graph struct {
	machine *isdl.Machine
	block   *ir.Block
	assign  *Assignment
	dm      isdl.Loc

	// nodes holds every node ever created, in creation order, so
	// nodes[i].ID == i (spilling only appends and flags removals).
	nodes  []*SNode
	nextID int
	// ix interns the machine's resources and indexes each node's by ID.
	ix *nodeIndex
	// slab hands out the nodes: one backing array per batch instead of
	// one allocation per node. Full batches are replaced, never grown,
	// so node pointers stay valid.
	slab []SNode

	// prod maps a value-at-location to the node that puts it there
	// (producer, setProducer): the original node's ID within each
	// location's row of idBound cells, locations interned in locs.
	prod    []*SNode
	locs    []isdl.Loc
	idBound int
	// busLoad counts transfers per bus, driving pickPath's choice among
	// alternative transfer paths (Sec. IV-B).
	busLoad map[string]int
	opts    Options

	// externalUses counts uses that survive the block (the branch
	// condition must stay in its register until the block ends).
	externalUses map[*SNode]int

	// nextSpill numbers spill slots.
	nextSpill int
	// nextMove numbers the synthetic memory slots transfer chains park
	// values in when a minimal path routes through a memory (no
	// bank-to-bank transfer exists, e.g. on memory-hub machines).
	nextMove int
}

// nodeBatch is the number of nodes one slab batch holds: small enough
// that a graph's unused tail stays a few KiB.
const nodeBatch = 8

// newGraph returns an empty solution graph for assignment a, its
// value-location table sized for every register bank and memory of the
// machine.
func newGraph(d *sndag.DAG, a *Assignment, opts Options) *graph {
	m := d.Machine
	g := &graph{
		machine:      m,
		block:        d.Block,
		assign:       a,
		dm:           isdl.MemLoc(m.DataMemory().Name),
		idBound:      d.Block.IDBound(),
		busLoad:      make(map[string]int),
		opts:         opts,
		externalUses: make(map[*SNode]int),
	}
	g.locs = make([]isdl.Loc, 0, len(m.Units)+len(m.Memories))
	for _, b := range m.Banks() {
		g.locs = append(g.locs, isdl.UnitLoc(b))
	}
	for _, mem := range m.Memories {
		g.locs = append(g.locs, isdl.MemLoc(mem.Name))
	}
	g.prod = make([]*SNode, len(g.locs)*g.idBound)
	return g
}

// prodCell returns the prod index of original node v's value at loc,
// interning loc (and growing prod by a row) on first sight.
func (g *graph) prodCell(v *ir.Node, loc isdl.Loc) int {
	li := slices.Index(g.locs, loc)
	if li < 0 {
		li = len(g.locs)
		g.locs = append(g.locs, loc)
		g.prod = append(g.prod, make([]*SNode, g.idBound)...)
	}
	return li*g.idBound + v.ID
}

// producer returns the node putting v's value at loc, or nil.
func (g *graph) producer(v *ir.Node, loc isdl.Loc) *SNode { return g.prod[g.prodCell(v, loc)] }

// setProducer records n as the node putting v's value at loc.
func (g *graph) setProducer(v *ir.Node, loc isdl.Loc, n *SNode) { g.prod[g.prodCell(v, loc)] = n }

func (g *graph) newNode(kind SNodeKind) *SNode {
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]SNode, 0, nodeBatch)
	}
	g.slab = append(g.slab, SNode{ID: g.nextID, Kind: kind})
	n := &g.slab[len(g.slab)-1]
	g.nextID++
	g.nodes = append(g.nodes, n)
	return n
}

// moveSlot returns a fresh compiler-internal memory slot for a transfer
// chain that must park a value in a memory on its way to a register
// bank. The "$" prefix marks the slot block-local, like spill slots, so
// the verifier pairs the store with its reloads instead of matching it
// against IR memory traffic.
func (g *graph) moveSlot() string {
	s := fmt.Sprintf("$mv%d", g.nextMove)
	g.nextMove++
	return s
}

// bankLoc returns the register-bank location a functional unit reads
// and writes.
func (g *graph) bankLoc(unit string) isdl.Loc {
	return isdl.UnitLoc(g.machine.BankOf(unit))
}

// memOf returns the location of the memory holding a named variable,
// honoring the VarPlacement option (default: the first data memory).
func (g *graph) memOf(varName string) (isdl.Loc, error) {
	name, ok := g.opts.VarPlacement[varName]
	if !ok {
		return g.dm, nil
	}
	for _, mem := range g.machine.Memories {
		if mem.Name == name {
			return isdl.MemLoc(name), nil
		}
	}
	return isdl.Loc{}, fmt.Errorf("cover: variable %s placed in unknown memory %s", varName, name)
}

// addOrderEdge records a pure ordering constraint (no value flows).
func addOrderEdge(from, to *SNode) {
	for _, s := range from.OrdSuccs {
		if s == to {
			return
		}
	}
	from.OrdSuccs = append(from.OrdSuccs, to)
	to.OrdPreds = append(to.OrdPreds, from)
}

// buildGraph constructs the solution graph for the assignment: one
// operation node per executing original node, transfer chains for every
// cross-bank value flow, load transfers from data memory, and store
// transfers to data memory, plus memory-ordering edges between accesses
// to the same variable.
func buildGraph(d *sndag.DAG, a *Assignment, opts Options) (*graph, error) {
	g := newGraph(d, a, opts)
	// Transfers typically outnumber the operations; start the node list
	// sized for a couple of transfers per node.
	g.nodes = make([]*SNode, 0, 2*len(d.Block.Nodes))

	loadsByVar := make(map[string][]*SNode)
	storesByVar := make(map[string][]*SNode)

	for _, n := range d.Block.Nodes {
		switch {
		case n.Op.IsComputation():
			if _, isAbsorbed := a.AbsorbedBy[n]; isAbsorbed {
				continue
			}
			alt := a.Choice[n]
			if alt == nil {
				return nil, fmt.Errorf("cover: node %s has no assignment", n)
			}
			op := g.newNode(OpNode)
			op.Value = n
			op.Unit = alt.Unit.Name
			op.Bank = alt.Unit.Regs.Name
			op.Op = alt.Op
			op.Alt = alt
			uloc := g.bankLoc(alt.Unit.Name)
			for _, operand := range alt.Operands {
				if operand.Op == ir.OpConst {
					continue // immediate
				}
				src, err := g.ensureValueAt(operand, uloc, loadsByVar)
				if err != nil {
					return nil, err
				}
				addEdge(src, op)
			}
			g.setProducer(n, uloc, op)

		case n.Op == ir.OpStore:
			st, err := g.buildStore(n, loadsByVar)
			if err != nil {
				return nil, err
			}
			storesByVar[n.Var] = append(storesByVar[n.Var], st)
		}
	}

	// Branch condition: its register stays live past the block.
	if d.Block.Term == ir.TermBranch && d.Block.Cond != nil {
		cond := d.Block.Cond
		if cond.Op == ir.OpConst {
			// Constant condition needs no register (resolved statically
			// by the emitter); nothing to pin.
		} else {
			var holder *SNode
			if cond.Op == ir.OpLoad {
				// Load the condition into some unit's bank.
				u, err := g.cheapestUnitFor(g.dm)
				if err != nil {
					return nil, err
				}
				holder, err = g.ensureValueAt(cond, g.bankLoc(u), loadsByVar)
				if err != nil {
					return nil, err
				}
			} else {
				exec := cond
				if root, ok := a.AbsorbedBy[exec]; ok {
					exec = root
				}
				holder = g.producer(exec, g.bankLoc(a.UnitOf(cond).Name))
			}
			if holder != nil {
				g.externalUses[holder]++
			}
		}
	}

	// Memory ordering: every load of a variable precedes its first store;
	// stores to the same variable stay in program order.
	for v, stores := range storesByVar {
		for _, ld := range loadsByVar[v] {
			addOrderEdge(ld, stores[0])
		}
		for i := 1; i < len(stores); i++ {
			addOrderEdge(stores[i-1], stores[i])
		}
	}
	g.ix = newNodeIndex(g.machine, g.nextID)
	g.ix.addAll(g.nodes)
	return g, nil
}

// ensureValueAt returns the node producing the value of original node o
// at location want, materializing the transfer chain (and load from data
// memory) if it does not exist yet. Chains are shared: once a value has
// landed in a bank, later consumers in that bank reuse it.
func (g *graph) ensureValueAt(o *ir.Node, want isdl.Loc, loadsByVar map[string][]*SNode) (*SNode, error) {
	if p := g.producer(o, want); p != nil {
		return p, nil
	}
	var src isdl.Loc
	switch {
	case o.Op == ir.OpLoad:
		var err error
		src, err = g.memOf(o.Var)
		if err != nil {
			return nil, err
		}
	case o.Op.IsComputation():
		u := g.assign.UnitOf(o)
		if u == nil {
			return nil, fmt.Errorf("cover: operand %s unassigned", o)
		}
		src = g.bankLoc(u.Name)
	default:
		return nil, fmt.Errorf("cover: cannot locate value of %s", o)
	}
	if src == want {
		if p := g.producer(o, src); p != nil {
			return p, nil
		}
		return nil, fmt.Errorf("cover: value %s expected at %s but never produced", o, src)
	}
	path, err := g.pickPath(src, want)
	if err != nil {
		return nil, fmt.Errorf("cover: value n%d: %w", o.ID, err)
	}
	cur := g.producer(o, src) // nil when src is the variable's memory
	for _, step := range path {
		if p := g.producer(o, step.To); p != nil {
			cur = p
			continue
		}
		t := g.newNode(MoveNode)
		switch {
		case step.From.Kind == isdl.LocMem && cur == nil:
			// First hop out of the variable's home memory: a named load.
			t.Kind = LoadNode
			t.Var = o.Var
			loadsByVar[o.Var] = append(loadsByVar[o.Var], t)
		case step.From.Kind == isdl.LocMem:
			// Hop out of an intermediate memory: reload the compiler
			// temp the previous hop parked there.
			t.Kind = LoadNode
			t.Var = cur.Var
		case step.To.Kind == isdl.LocMem:
			// Hop into an intermediate memory (want is always a bank, so
			// this is never the final step): park the value in a fresh
			// compiler temp. A minimal path only routes through a memory
			// when the machine has no bank-to-bank transfer for this leg.
			t.Kind = StoreNode
			t.Var = g.moveSlot()
		}
		t.Value = o
		t.Step = step
		if cur != nil {
			addEdge(cur, t)
		}
		g.busLoad[step.Bus]++
		g.setProducer(o, step.To, t)
		cur = t
	}
	return cur, nil
}

// buildStore materializes the transfer chain delivering a store's value
// to data memory, returning the final store node. Stores of constants and
// of freshly loaded values route through a pass-through unit.
func (g *graph) buildStore(s *ir.Node, loadsByVar map[string][]*SNode) (*SNode, error) {
	arg := s.Args[0]
	var src isdl.Loc
	var producer *SNode
	switch {
	case arg.Op == ir.OpConst:
		// Materialize the immediate in some unit's register.
		u, err := g.cheapestUnitFor(g.dm)
		if err != nil {
			return nil, err
		}
		op := g.newNode(OpNode)
		op.Value = arg
		op.Unit = u
		op.Bank = g.machine.BankOf(u)
		op.Op = ir.OpConst
		src = g.bankLoc(u)
		g.setProducer(arg, src, op)
		producer = op
	case arg.Op == ir.OpLoad:
		u, err := g.cheapestUnitFor(g.dm)
		if err != nil {
			return nil, err
		}
		src = g.bankLoc(u)
		p, err := g.ensureValueAt(arg, src, loadsByVar)
		if err != nil {
			return nil, err
		}
		producer = p
	default:
		unit := g.assign.UnitOf(arg)
		if unit == nil {
			return nil, fmt.Errorf("cover: store %s of unassigned value", s)
		}
		src = g.bankLoc(unit.Name)
		producer = g.producer(arg, src)
		if producer == nil {
			return nil, fmt.Errorf("cover: store %s: value not produced at %s", s, src)
		}
	}

	dst, err := g.memOf(s.Var)
	if err != nil {
		return nil, err
	}
	path, err := g.pickPath(src, dst)
	if err != nil {
		return nil, fmt.Errorf("cover: store %s: %w", s, err)
	}
	cur := producer
	for i, step := range path {
		var t *SNode
		switch {
		case i == len(path)-1:
			t = g.newNode(StoreNode)
			t.Var = s.Var
		case step.To.Kind == isdl.LocMem:
			// Intermediate memory stop before the destination memory:
			// park the value in a compiler temp.
			t = g.newNode(StoreNode)
			t.Var = g.moveSlot()
		case step.From.Kind == isdl.LocMem:
			t = g.newNode(LoadNode)
			t.Var = cur.Var
		default:
			t = g.newNode(MoveNode)
		}
		t.Value = arg
		t.Step = step
		addEdge(cur, t)
		g.busLoad[step.Bus]++
		if step.To.Kind == isdl.LocUnit {
			g.setProducer(arg, step.To, t)
		}
		cur = t
	}
	return cur, nil
}

// pickPath selects a transfer path from src to dst: among the
// minimal-hop alternatives, the one whose buses are least congested so
// far, so transfers spread over buses and can share an instruction
// (Sec. IV-B). Ties keep the first alternative.
func (g *graph) pickPath(src, dst isdl.Loc) ([]isdl.Transfer, error) {
	paths := g.machine.TransferPaths(src, dst)
	if len(paths) == 0 {
		return nil, fmt.Errorf("no transfer path %s -> %s", src, dst)
	}
	if len(paths) == 1 {
		return paths[0], nil
	}
	best, bestCost := paths[0], -1
	for _, p := range paths {
		cost := 0
		for _, step := range p {
			cost += g.busLoad[step.Bus]
		}
		if bestCost < 0 || cost < bestCost {
			best, bestCost = p, cost
		}
	}
	return best, nil
}

// cheapestUnitFor returns the unit with the cheapest round trip from the
// given memory (used to route leaf stores through a pass-through unit).
func (g *graph) cheapestUnitFor(mem isdl.Loc) (string, error) {
	best, bestCost := "", -1
	for _, u := range g.machine.Units {
		ul := isdl.UnitLoc(u.Regs.Name)
		c1, c2 := g.machine.PathCost(mem, ul), g.machine.PathCost(ul, mem)
		if c1 < 0 || c2 < 0 {
			continue
		}
		if bestCost < 0 || c1+c2 < bestCost {
			best, bestCost = u.Name, c1+c2
		}
	}
	if best == "" {
		return "", fmt.Errorf("cover: no unit reachable from %s", mem)
	}
	return best, nil
}

// latencyOf returns the result latency of a solution-graph node.
func (g *graph) latencyOf(n *SNode) int { return nodeLatency(g.machine, n) }

// nodeLatency returns a node's result latency in cycles: operations use
// their unit's declared latency, transfers and synthetic immediate
// materializations take one cycle.
func nodeLatency(m *isdl.Machine, n *SNode) int {
	if n.Kind == OpNode && n.Op.IsComputation() {
		if u := m.Unit(n.Unit); u != nil {
			return u.LatencyOf(n.Op)
		}
	}
	return 1
}

// nodeIndex is the dense form of one graph's resource accounting. The
// machine's functional units and buses are interned once as resources
// and its register banks as banks; each node's resource (its unit, or
// the bus its transfer rides), defined bank and result latency are then
// slices indexed by SNode.ID, so the covering's counting loops index
// slices instead of hashing names. Machines declare a handful of units,
// buses and banks, so interning is a linear scan, not a map.
type nodeIndex struct {
	machine *isdl.Machine

	// Per resource: its name, and whether it is a bus (else a unit).
	resName []string
	resBus  []bool
	// width is the number of users a resource serves per instruction: 1
	// for a unit, the declared width for a bus, 1 for an undeclared bus.
	width []int
	// exclusive marks the resources two nodes can never share in one
	// instruction: every unit, and every declared width-1 bus.
	exclusive []bool

	bankNames []string
	bankSizes []int

	// Indexed by SNode.ID: the node's resource, the register bank it
	// defines a value into (-1 when it defines none), and its result
	// latency.
	res  []int32
	bank []int32
	lat  []int32
}

// newNodeIndex interns m's units, buses and banks, in declaration
// order, and sizes the per-node slices for n nodes.
func newNodeIndex(m *isdl.Machine, n int) *nodeIndex {
	x := &nodeIndex{
		machine: m,
		res:     make([]int32, 0, n),
		bank:    make([]int32, 0, n),
		lat:     make([]int32, 0, n),
	}
	for _, u := range m.Units {
		x.resource(u.Name, false)
	}
	for _, b := range m.Buses {
		x.resource(b.Name, true)
	}
	for _, b := range m.Banks() {
		x.internBank(b)
	}
	return x
}

// resource returns the index of the named unit or bus, interning it on
// first sight. A name the machine does not declare keeps the meaning
// the name-keyed code gave it: a unit is exclusive, a bus one slot wide
// but shareable.
func (x *nodeIndex) resource(name string, bus bool) int32 {
	for i, n := range x.resName {
		if n == name && x.resBus[i] == bus {
			return int32(i)
		}
	}
	width, exclusive := 1, !bus
	if bus {
		if b := x.machine.Bus(name); b != nil {
			// Finalize rejects widths below 1; the clamp keeps the
			// ceiling divisions safe on an unfinalized description.
			width, exclusive = max(b.Width, 1), b.Width == 1
		}
	}
	x.resName = append(x.resName, name)
	x.resBus = append(x.resBus, bus)
	x.width = append(x.width, width)
	x.exclusive = append(x.exclusive, exclusive)
	return int32(len(x.resName) - 1)
}

func (x *nodeIndex) internBank(name string) int32 {
	for i, b := range x.bankNames {
		if b == name {
			return int32(i)
		}
	}
	x.bankNames = append(x.bankNames, name)
	x.bankSizes = append(x.bankSizes, x.machine.BankSize(name))
	return int32(len(x.bankNames) - 1)
}

// addAll indexes the nodes, growing the per-node slices to the largest
// ID.
func (x *nodeIndex) addAll(nodes []*SNode) {
	for _, n := range nodes {
		for len(x.res) <= n.ID {
			x.res = append(x.res, 0)
			x.bank = append(x.bank, -1)
			x.lat = append(x.lat, 1)
		}
		if n.Kind == OpNode {
			x.res[n.ID] = x.resource(n.Unit, false)
		} else {
			x.res[n.ID] = x.resource(n.Step.Bus, true)
		}
		x.bank[n.ID] = -1
		if loc, ok := n.DefLoc(); ok && loc.Kind == isdl.LocUnit {
			x.bank[n.ID] = x.internBank(loc.Name)
		}
		x.lat[n.ID] = int32(nodeLatency(x.machine, n))
	}
}
