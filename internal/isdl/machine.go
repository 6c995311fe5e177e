// Package isdl models target processor descriptions in the spirit of ISDL
// (Instruction Set Description Language, Hadjiyiannis/Hanono/Devadas,
// DAC 1997), covering the subset the AVIV code generator consumes:
//
//   - functional units with their operation repertoires,
//   - one register file (bank) per unit,
//   - data memories,
//   - buses and the data-transfer paths they provide (expanded to
//     multi-step paths, Sec. II of the paper),
//   - constraints marking illegal operation groupings (Sec. IV-C.3), and
//   - complex-instruction patterns (Sec. III-B).
//
// A Machine is built either programmatically (Builder methods) or from a
// textual description (Parse). Finalize derives the databases the code
// generator uses: the op→unit correlation and the transfer-path closure.
package isdl

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"

	"aviv/internal/ir"
)

// LocKind distinguishes value locations.
type LocKind uint8

// Location kinds: a functional unit's register file, or a data memory.
const (
	LocUnit LocKind = iota
	LocMem
)

// Loc names a place a value can live: a unit's register file or a memory.
type Loc struct {
	Kind LocKind
	Name string
}

// UnitLoc returns the location of the named unit's register file.
func UnitLoc(name string) Loc { return Loc{LocUnit, name} }

// MemLoc returns the location of the named memory.
func MemLoc(name string) Loc { return Loc{LocMem, name} }

func (l Loc) String() string {
	if l.Kind == LocMem {
		return l.Name + "(mem)"
	}
	return l.Name
}

// RegFile names the register bank a functional unit reads and writes.
// By default every unit has a private bank named after the unit; units
// may share a bank (ShareBank), modeling clustered VLIWs where several
// units address one file — values then move between such units without a
// data transfer.
type RegFile struct {
	Name string // bank name; defaults to the owning unit's name
	Size int    // number of registers
}

// Unit is a functional unit: it issues one operation per cycle drawn
// from Ops, reading and writing its own register file. Operations
// complete after their latency (default 1 cycle); the machine has no
// interlocks, so the code generator must separate dependent operations
// by the producer's latency, padding with NOPs when nothing else fits —
// multi-cycle operations therefore cost code size, exactly the currency
// the paper optimizes.
type Unit struct {
	Name string
	Ops  map[ir.Op]bool
	Regs RegFile
	// Latency gives per-op result latencies in cycles; absent entries
	// default to 1.
	Latency map[ir.Op]int
}

// Can reports whether the unit can perform op.
func (u *Unit) Can(op ir.Op) bool { return u.Ops[op] }

// LatencyOf returns the result latency of op on this unit (≥ 1).
func (u *Unit) LatencyOf(op ir.Op) int {
	if l, ok := u.Latency[op]; ok && l > 0 {
		return l
	}
	return 1
}

// SetLatency declares a multi-cycle operation.
func (u *Unit) SetLatency(op ir.Op, cycles int) {
	if u.Latency == nil {
		u.Latency = make(map[ir.Op]int)
	}
	u.Latency[op] = cycles
}

// OpList returns the unit's operations sorted by name.
func (u *Unit) OpList() []ir.Op {
	ops := make([]ir.Op, 0, len(u.Ops))
	for op := range u.Ops {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].String() < ops[j].String() })
	return ops
}

// Memory is a data memory reachable over the transfer network.
type Memory struct {
	Name string
}

// Bus is a transfer resource. Width bounds how many transfers may ride the
// bus within a single (VLIW) instruction.
type Bus struct {
	Name  string
	Width int
}

// Transfer is a single-step data-transfer capability: a value can move
// From -> To over Bus, costing one transfer slot in one instruction.
type Transfer struct {
	From, To Loc
	Bus      string
}

func (t Transfer) String() string {
	return fmt.Sprintf("%s -> %s via %s", t.From, t.To, t.Bus)
}

// SlotRef names one (unit, op) pairing inside an instruction, used by
// constraints.
type SlotRef struct {
	Unit string
	Op   ir.Op
}

func (s SlotRef) String() string { return s.Unit + "." + s.Op.String() }

// Constraint forbids an instruction that simultaneously contains all the
// listed slots. This mirrors ISDL's "everything is orthogonal unless
// explicitly constrained" philosophy (Sec. V-C of the paper).
type Constraint struct {
	Forbid []SlotRef
}

func (c Constraint) String() string {
	parts := make([]string, len(c.Forbid))
	for i, s := range c.Forbid {
		parts[i] = s.String()
	}
	return "!(" + strings.Join(parts, " & ") + ")"
}

// Machine is a complete target processor description.
type Machine struct {
	Name        string
	Units       []*Unit
	Memories    []*Memory
	Buses       []*Bus
	Transfers   []Transfer
	Constraints []Constraint
	Patterns    []Pattern

	// Derived databases, built by Finalize.
	banks      []string
	bankSize   map[string]int
	unitByName map[string]*Unit
	busByName  map[string]*Bus
	memByName  map[string]*Memory
	opUnits    map[ir.Op][]*Unit // op -> units that can perform it
	paths      map[[2]Loc][][]Transfer
	fp         [sha256.Size]byte // Fingerprint, stored by Finalize
	finalized  bool
}

// NewMachine returns an empty machine description.
func NewMachine(name string) *Machine {
	return &Machine{Name: name}
}

// AddUnit adds a functional unit with a private register file of regs
// registers supporting the given operations.
func (m *Machine) AddUnit(name string, regs int, ops ...ir.Op) *Unit {
	u := &Unit{
		Name: name,
		Ops:  make(map[ir.Op]bool, len(ops)),
		Regs: RegFile{Name: name, Size: regs},
	}
	for _, op := range ops {
		u.Ops[op] = true
	}
	m.Units = append(m.Units, u)
	m.finalized = false
	return u
}

// ShareBank places the named units on one shared register bank of the
// given size. Values produced by any sharing unit are directly readable
// by the others — no data transfer needed.
func (m *Machine) ShareBank(bank string, size int, units ...string) error {
	for _, name := range units {
		u := m.Unit(name)
		if u == nil {
			return fmt.Errorf("isdl: ShareBank: unknown unit %s", name)
		}
		u.Regs = RegFile{Name: bank, Size: size}
	}
	m.finalized = false
	return nil
}

// BankOf returns the register bank name the unit uses.
func (m *Machine) BankOf(unit string) string {
	u := m.Unit(unit)
	if u == nil {
		return ""
	}
	return u.Regs.Name
}

// BankSize returns the size of the named register bank, or 0 if unknown.
func (m *Machine) BankSize(bank string) int {
	if m.bankSize != nil {
		return m.bankSize[bank]
	}
	for _, u := range m.Units {
		if u.Regs.Name == bank {
			return u.Regs.Size
		}
	}
	return 0
}

// Banks returns the machine's register bank names in first-declaration
// order.
func (m *Machine) Banks() []string {
	if m.banks != nil {
		return m.banks
	}
	var out []string
	seen := map[string]bool{}
	for _, u := range m.Units {
		if !seen[u.Regs.Name] {
			seen[u.Regs.Name] = true
			out = append(out, u.Regs.Name)
		}
	}
	return out
}

// AddMemory adds a data memory.
func (m *Machine) AddMemory(name string) *Memory {
	mem := &Memory{Name: name}
	m.Memories = append(m.Memories, mem)
	m.finalized = false
	return mem
}

// AddBus adds a transfer bus carrying up to width transfers per instruction.
func (m *Machine) AddBus(name string, width int) *Bus {
	b := &Bus{Name: name, Width: width}
	m.Buses = append(m.Buses, b)
	m.finalized = false
	return b
}

// AddTransfer declares a one-directional transfer path.
func (m *Machine) AddTransfer(from, to Loc, bus string) {
	m.Transfers = append(m.Transfers, Transfer{From: from, To: to, Bus: bus})
	m.finalized = false
}

// ConnectAll declares a full crossbar over the given bus: every unit and
// memory can transfer to every other. This is the paper's example
// architecture ("a databus that connects all units and memories").
func (m *Machine) ConnectAll(bus string) {
	var locs []Loc
	seen := map[string]bool{}
	for _, u := range m.Units {
		if !seen[u.Regs.Name] {
			seen[u.Regs.Name] = true
			locs = append(locs, UnitLoc(u.Regs.Name))
		}
	}
	for _, mem := range m.Memories {
		locs = append(locs, MemLoc(mem.Name))
	}
	for _, a := range locs {
		for _, b := range locs {
			if a != b {
				m.AddTransfer(a, b, bus)
			}
		}
	}
}

// AddConstraint forbids the simultaneous issue of all the given slots.
func (m *Machine) AddConstraint(slots ...SlotRef) {
	m.Constraints = append(m.Constraints, Constraint{Forbid: slots})
}

// Unit returns the named unit, or nil.
func (m *Machine) Unit(name string) *Unit {
	if m.unitByName != nil {
		return m.unitByName[name]
	}
	for _, u := range m.Units {
		if u.Name == name {
			return u
		}
	}
	return nil
}

// Bus returns the named bus, or nil.
func (m *Machine) Bus(name string) *Bus {
	if m.busByName != nil {
		return m.busByName[name]
	}
	for _, b := range m.Buses {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// DataMemory returns the machine's first data memory, which the code
// generator uses for variables and spills.
func (m *Machine) DataMemory() *Memory {
	if len(m.Memories) == 0 {
		return nil
	}
	return m.Memories[0]
}

// UnitsFor returns the units able to perform op (the op→unit database of
// Sec. II), in declaration order. Finalize must have been called.
func (m *Machine) UnitsFor(op ir.Op) []*Unit {
	return m.opUnits[op]
}

// Finalize validates the description and builds the derived databases.
// It must be called before the machine is used for code generation, and
// again after any mutation.
func (m *Machine) Finalize() error {
	m.unitByName = make(map[string]*Unit, len(m.Units))
	m.busByName = make(map[string]*Bus, len(m.Buses))
	m.memByName = make(map[string]*Memory, len(m.Memories))

	if len(m.Units) == 0 {
		return fmt.Errorf("isdl: machine %s has no functional units", m.Name)
	}
	m.banks = nil
	m.bankSize = make(map[string]int)
	for _, u := range m.Units {
		if _, dup := m.unitByName[u.Name]; dup {
			return fmt.Errorf("isdl: duplicate unit %s", u.Name)
		}
		if u.Regs.Size < 1 {
			return fmt.Errorf("isdl: unit %s has %d registers", u.Name, u.Regs.Size)
		}
		if sz, seen := m.bankSize[u.Regs.Name]; seen {
			if sz != u.Regs.Size {
				return fmt.Errorf("isdl: bank %s declared with sizes %d and %d", u.Regs.Name, sz, u.Regs.Size)
			}
		} else {
			m.bankSize[u.Regs.Name] = u.Regs.Size
			m.banks = append(m.banks, u.Regs.Name)
		}
		for op, lat := range u.Latency {
			if !u.Can(op) {
				return fmt.Errorf("isdl: unit %s declares latency for unsupported %s", u.Name, op)
			}
			if lat < 1 {
				return fmt.Errorf("isdl: unit %s has latency %d for %s", u.Name, lat, op)
			}
		}
		m.unitByName[u.Name] = u
	}
	for _, b := range m.Buses {
		if _, dup := m.busByName[b.Name]; dup {
			return fmt.Errorf("isdl: duplicate bus %s", b.Name)
		}
		if b.Width < 1 {
			return fmt.Errorf("isdl: bus %s has width %d", b.Name, b.Width)
		}
		m.busByName[b.Name] = b
	}
	for _, mem := range m.Memories {
		if _, dup := m.memByName[mem.Name]; dup {
			return fmt.Errorf("isdl: duplicate memory %s", mem.Name)
		}
		m.memByName[mem.Name] = mem
	}
	for _, t := range m.Transfers {
		if err := m.checkLoc(t.From); err != nil {
			return fmt.Errorf("isdl: transfer %s: %w", t, err)
		}
		if err := m.checkLoc(t.To); err != nil {
			return fmt.Errorf("isdl: transfer %s: %w", t, err)
		}
		if m.busByName[t.Bus] == nil {
			return fmt.Errorf("isdl: transfer %s: unknown bus %s", t, t.Bus)
		}
	}
	for _, c := range m.Constraints {
		if len(c.Forbid) < 1 {
			return fmt.Errorf("isdl: empty constraint")
		}
		for _, s := range c.Forbid {
			u := m.unitByName[s.Unit]
			if u == nil {
				return fmt.Errorf("isdl: constraint %s: unknown unit %s", c, s.Unit)
			}
			if !u.Can(s.Op) {
				return fmt.Errorf("isdl: constraint %s: unit %s cannot perform %s", c, s.Unit, s.Op)
			}
		}
	}
	for _, p := range m.Patterns {
		if err := p.validate(m); err != nil {
			return fmt.Errorf("isdl: pattern %s: %w", p, err)
		}
	}

	// Op → units database (Sec. II: "a correlation between the target
	// processor operations and the SUIF basic operations").
	m.opUnits = make(map[ir.Op][]*Unit)
	for _, u := range m.Units {
		for op := range u.Ops {
			m.opUnits[op] = append(m.opUnits[op], u)
		}
	}
	for op := range m.opUnits {
		units := m.opUnits[op]
		sort.Slice(units, func(i, j int) bool { return units[i].Name < units[j].Name })
	}

	// Transfer-path closure (Sec. II: "expanded to include multiple-step
	// data transfers as well").
	m.buildPaths()
	m.fp = sha256.Sum256([]byte(m.Describe()))
	m.finalized = true
	return nil
}

func (m *Machine) checkLoc(l Loc) error {
	switch l.Kind {
	case LocUnit:
		// Transfer endpoints are register banks; a unit name resolves to
		// its (identically named, by default) bank.
		if _, ok := m.bankSize[l.Name]; !ok {
			return fmt.Errorf("unknown register bank %s", l.Name)
		}
	case LocMem:
		if m.memByName[l.Name] == nil {
			return fmt.Errorf("unknown memory %s", l.Name)
		}
	default:
		return fmt.Errorf("bad location kind %d", l.Kind)
	}
	return nil
}

// SupportsDAG reports whether every computation node in the block can be
// executed by at least one unit, returning the first unsupported op.
func (m *Machine) SupportsDAG(b *ir.Block) error {
	for _, n := range b.Nodes {
		if !n.Op.IsComputation() {
			continue
		}
		if len(m.UnitsFor(n.Op)) == 0 {
			return fmt.Errorf("isdl: machine %s: no unit performs %s", m.Name, n.Op)
		}
	}
	return nil
}

// Clone returns a deep copy of the machine with name newName. The copy is
// not finalized; mutate it (e.g. change register file sizes, drop units)
// and call Finalize. This supports the paper's design-space exploration
// use case (Sec. VI).
func (m *Machine) Clone(newName string) *Machine {
	c := NewMachine(newName)
	for _, u := range m.Units {
		nu := c.AddUnit(u.Name, u.Regs.Size)
		nu.Regs = u.Regs
		for op := range u.Ops {
			nu.Ops[op] = true
		}
		for op, lat := range u.Latency {
			nu.SetLatency(op, lat)
		}
	}
	for _, mem := range m.Memories {
		c.AddMemory(mem.Name)
	}
	for _, b := range m.Buses {
		c.AddBus(b.Name, b.Width)
	}
	c.Transfers = append(c.Transfers, m.Transfers...)
	for _, con := range m.Constraints {
		forbid := make([]SlotRef, len(con.Forbid))
		copy(forbid, con.Forbid)
		c.Constraints = append(c.Constraints, Constraint{Forbid: forbid})
	}
	c.Patterns = append(c.Patterns, m.Patterns...)
	return c
}

// RemoveUnit deletes the named unit and all transfers touching it.
// Returns false if no such unit exists. The machine must be re-finalized.
func (m *Machine) RemoveUnit(name string) bool {
	idx := -1
	for i, u := range m.Units {
		if u.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	bank := m.Units[idx].Regs.Name
	m.Units = append(m.Units[:idx], m.Units[idx+1:]...)
	bankStillUsed := false
	for _, u := range m.Units {
		if u.Regs.Name == bank {
			bankStillUsed = true
		}
	}
	if !bankStillUsed {
		var kept []Transfer
		loc := UnitLoc(bank)
		for _, t := range m.Transfers {
			if t.From != loc && t.To != loc {
				kept = append(kept, t)
			}
		}
		m.Transfers = kept
	}
	var keptCons []Constraint
	for _, c := range m.Constraints {
		touches := false
		for _, s := range c.Forbid {
			if s.Unit == name {
				touches = true
				break
			}
		}
		if !touches {
			keptCons = append(keptCons, c)
		}
	}
	m.Constraints = keptCons
	m.finalized = false
	return true
}

// HardwareCost is a coarse silicon-area model for design-space
// exploration (the hardware half of the co-design trade-off the paper's
// Sec. I motivates): each functional unit costs a base amount plus a term
// per supported operation, register files cost per register, and buses
// cost per transfer slot. Units are abstract area points — only ratios
// between candidate machines matter.
func (m *Machine) HardwareCost() int {
	cost := 0
	for _, u := range m.Units {
		cost += 10 + 2*len(u.Ops) + 3*u.Regs.Size
	}
	for _, b := range m.Buses {
		cost += 5 * b.Width
	}
	return cost
}
