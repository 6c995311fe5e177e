package cover

import (
	"fmt"

	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sndag"
)

// SNodeKind distinguishes the node kinds of a solution graph.
type SNodeKind uint8

// Solution-graph node kinds.
const (
	// OpNode executes a machine operation on a functional unit.
	OpNode SNodeKind = iota
	// MoveNode transfers a value between two register banks over a bus.
	MoveNode
	// LoadNode transfers a value from data memory into a register bank
	// (variable loads and spill reloads).
	LoadNode
	// StoreNode transfers a value from a register bank to data memory
	// (variable stores and spills).
	StoreNode
)

func (k SNodeKind) String() string {
	switch k {
	case OpNode:
		return "op"
	case MoveNode:
		return "move"
	case LoadNode:
		return "load"
	case StoreNode:
		return "store"
	}
	return "?"
}

// SNode is one node of the solution graph built for a functional-unit
// assignment: an operation on its assigned unit, or a data-transfer
// (move, load, store/spill). These are the nodes the maximal-clique
// grouping and the greedy covering of Sec. IV-C/IV-D operate on.
type SNode struct {
	ID   int
	Kind SNodeKind

	// Value identifies the value involved: the original IR node whose
	// result this SNode produces (ops), carries (moves/loads), or
	// consumes (stores). For synthetic pass-through copies it is the
	// store node being implemented.
	Value *ir.Node

	// Op fields.
	Unit string // executing functional unit (ops)
	Bank string // register bank the op writes (the unit's bank)
	Op   ir.Op
	Alt  *sndag.Alt // the chosen alternative (ops only)

	// Transfer fields.
	Step isdl.Transfer // the hop this transfer performs (non-op nodes)
	Var  string        // memory location name for loads/stores ("" for moves)

	// Preds/Succs are value dependences: every Succ reads the register
	// value this node defines.
	Preds []*SNode
	Succs []*SNode
	// OrdPreds/OrdSuccs are pure ordering constraints (memory access
	// ordering, spill-before-reload); no register value flows along them.
	OrdPreds []*SNode
	OrdSuccs []*SNode
}

// DefLoc returns the location this node writes a value into, and whether
// it defines a register value at all (stores write memory, not a bank).
func (n *SNode) DefLoc() (isdl.Loc, bool) {
	switch n.Kind {
	case OpNode:
		return isdl.UnitLoc(n.Bank), true
	case MoveNode, LoadNode:
		return n.Step.To, true
	default:
		return isdl.Loc{}, false
	}
}

func (n *SNode) String() string {
	switch n.Kind {
	case OpNode:
		return fmt.Sprintf("s%d:%s@%s(n%d)", n.ID, n.Op, n.Unit, n.Value.ID)
	case LoadNode:
		return fmt.Sprintf("s%d:LD %s->%s(n%d)", n.ID, n.Var, n.Step.To, n.Value.ID)
	case StoreNode:
		return fmt.Sprintf("s%d:ST %s->%s(n%d)", n.ID, n.Step.From, n.Var, n.Value.ID)
	default:
		return fmt.Sprintf("s%d:MV %s->%s(n%d)", n.ID, n.Step.From, n.Step.To, n.Value.ID)
	}
}

// Link adds a value-dependence edge between externally constructed nodes
// (used by tests and the figure-reproduction harness to rebuild the
// paper's worked examples).
func Link(from, to *SNode) { addEdge(from, to) }

func addEdge(from, to *SNode) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}
