package cover

import (
	"fmt"
	"sort"

	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sndag"
)

// serialFallback generates guaranteed-schedulable code for one assignment
// when the clique coverer cannot satisfy the register files: every value
// lives in data memory, operands are reloaded immediately before each
// operation, and every result is stored back at once. One solution-graph
// node issues per instruction, so at most an operation's own operands are
// ever live in a bank — which the assignment filter already guarantees to
// fit. Code size is poor; the covering only falls back here when the
// machine is too register-starved for anything better.
func serialFallback(d *sndag.DAG, a *Assignment, opts Options) (*Solution, error) {
	g := newGraph(d, a, opts)
	var seq []*SNode
	emit := func(n *SNode) *SNode {
		if len(seq) > 0 {
			addOrderEdge(seq[len(seq)-1], n) // strict serial order
		}
		seq = append(seq, n)
		return n
	}
	tmp := 0
	slotOf := make(map[*ir.Node]string)
	// slotLoc tracks which memory each slot lives in: program variables
	// honor VarPlacement, compiler temps use the first data memory.
	slotLoc := make(map[*ir.Node]isdl.Loc)

	// Vars that are both loaded and stored get their initial value
	// snapshotted to a temp slot so later reloads see the original.
	loaded := make(map[string]*ir.Node)
	stored := make(map[string]bool)
	for _, n := range d.Block.Nodes {
		switch n.Op {
		case ir.OpLoad:
			loaded[n.Var] = n
		case ir.OpStore:
			stored[n.Var] = true
		}
	}
	passUnit, err := g.cheapestUnitFor(g.dm)
	if err != nil {
		return nil, err
	}
	// reload returns a fresh load of o's memory copy into unit.
	reload := func(o *ir.Node, unit string) (*SNode, error) {
		slot, ok := slotOf[o]
		if !ok {
			return nil, fmt.Errorf("cover: serial: value n%d has no memory slot", o.ID)
		}
		from, ok := slotLoc[o]
		if !ok {
			from = g.dm
		}
		paths := g.machine.TransferPaths(from, g.bankLoc(unit))
		if len(paths) == 0 {
			return nil, fmt.Errorf("cover: serial: no path DM -> %s", unit)
		}
		var cur *SNode
		for i, step := range paths[0] {
			t := g.newNode(MoveNode)
			switch {
			case i == 0:
				t.Kind = LoadNode
				t.Var = slot
			case step.From.Kind == isdl.LocMem:
				// Hop out of an intermediate memory: reload the temp the
				// previous hop parked there.
				t.Kind = LoadNode
				t.Var = cur.Var
			case step.To.Kind == isdl.LocMem:
				t.Kind = StoreNode
				t.Var = g.moveSlot()
			}
			t.Value = o
			t.Step = step
			if cur != nil {
				addEdge(cur, t)
			}
			emit(t)
			cur = t
		}
		return cur, nil
	}
	// saveTo stores the register value held by src to the named location.
	saveTo := func(src *SNode, unit, name string) error {
		paths := g.machine.TransferPaths(g.bankLoc(unit), g.dm)
		if len(paths) == 0 {
			return fmt.Errorf("cover: serial: no path %s -> DM", unit)
		}
		cur := src
		for i, step := range paths[0] {
			var t *SNode
			switch {
			case i == len(paths[0])-1:
				t = g.newNode(StoreNode)
				t.Var = name
			case step.To.Kind == isdl.LocMem:
				t = g.newNode(StoreNode)
				t.Var = g.moveSlot()
			case step.From.Kind == isdl.LocMem:
				t = g.newNode(LoadNode)
				t.Var = cur.Var
			default:
				t = g.newNode(MoveNode)
			}
			t.Value = src.Value
			t.Step = step
			addEdge(cur, t)
			emit(t)
			cur = t
		}
		return nil
	}

	// Iterate in sorted-variable order: temp slot numbering and the
	// emitted snapshot sequence must not depend on map iteration.
	loadVars := make([]string, 0, len(loaded))
	for v := range loaded {
		loadVars = append(loadVars, v)
	}
	sort.Strings(loadVars)
	for _, v := range loadVars {
		ld := loaded[v]
		home, err := g.memOf(v)
		if err != nil {
			return nil, err
		}
		if !stored[v] {
			slotOf[ld] = v
			slotLoc[ld] = home
			continue
		}
		// Snapshot the initial value through a pass-through unit.
		slot := fmt.Sprintf("$t%d", tmp)
		tmp++
		slotOf[ld] = v // temporarily; reload below reads the live var
		slotLoc[ld] = home
		r, err := reload(ld, passUnit)
		if err != nil {
			return nil, err
		}
		if err := saveTo(r, passUnit, slot); err != nil {
			return nil, err
		}
		slotOf[ld] = slot
		slotLoc[ld] = g.dm
	}

	for _, n := range d.Block.Nodes {
		switch {
		case n.Op.IsComputation():
			if _, absorbed := a.AbsorbedBy[n]; absorbed {
				continue
			}
			alt := a.Choice[n]
			if alt == nil {
				return nil, fmt.Errorf("cover: serial: node %s unassigned", n)
			}
			unit := alt.Unit.Name
			op := g.newNode(OpNode)
			op.Value = n
			op.Unit = unit
			op.Bank = g.machine.BankOf(unit)
			op.Op = alt.Op
			op.Alt = alt
			delivered := make(map[*ir.Node]*SNode)
			for _, operand := range alt.Operands {
				if operand.Op == ir.OpConst {
					continue
				}
				if p, ok := delivered[operand]; ok {
					_ = p // duplicated operand shares the register
					continue
				}
				r, err := reload(operand, unit)
				if err != nil {
					return nil, err
				}
				// The emit-time producer lookup in asm finds operands
				// via Preds by (value, bank); record the landing.
				g.setProducer(operand, g.bankLoc(unit), r)
				delivered[operand] = r
				addEdge(r, op)
			}
			emit(op)
			slot := fmt.Sprintf("$t%d", tmp)
			tmp++
			slotOf[n] = slot
			if err := saveTo(op, unit, slot); err != nil {
				return nil, err
			}
		case n.Op == ir.OpStore:
			arg := n.Args[0]
			if arg.Op == ir.OpConst {
				c := g.newNode(OpNode)
				c.Value = arg
				c.Unit = passUnit
				c.Bank = g.machine.BankOf(passUnit)
				c.Op = ir.OpConst
				emit(c)
				if err := saveTo(c, passUnit, n.Var); err != nil {
					return nil, err
				}
				continue
			}
			r, err := reload(arg, passUnit)
			if err != nil {
				return nil, err
			}
			if err := saveTo(r, passUnit, n.Var); err != nil {
				return nil, err
			}
			// A store clobbers the variable; later reloads of a load
			// of the same var must use the snapshot, which they already
			// do (slotOf points at the snapshot).
		}
	}

	// Branch condition: reload it last and pin the register.
	if d.Block.Term == ir.TermBranch && d.Block.Cond != nil && d.Block.Cond.Op != ir.OpConst {
		r, err := reload(d.Block.Cond, passUnit)
		if err != nil {
			return nil, err
		}
		g.externalUses[r]++
	}

	sol := &Solution{
		Block:        d.Block,
		Machine:      d.Machine,
		Assignment:   a,
		SpillCount:   tmp,
		ExternalUses: g.externalUses,
	}
	// One node per instruction, with NOP padding wherever a producer's
	// latency has not elapsed (the machine has no interlocks).
	pos := make(map[*SNode]int, len(seq))
	cycle := 0
	for _, n := range seq {
		at := cycle
		for _, p := range n.Preds {
			if t := pos[p] + g.latencyOf(p); t > at {
				at = t
			}
		}
		for _, p := range n.OrdPreds {
			if t := pos[p] + 1; t > at {
				at = t
			}
		}
		for cycle < at {
			sol.Instrs = append(sol.Instrs, nil)
			cycle++
		}
		sol.Instrs = append(sol.Instrs, []*SNode{n})
		pos[n] = cycle
		cycle++
	}
	return sol, nil
}
