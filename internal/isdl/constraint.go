package isdl

import (
	"fmt"

	"aviv/internal/ir"
)

// GroupError explains why a proposed operation grouping is not a legal
// instruction on the machine. It records the violation and formats the
// reason text only when the error is printed, so callers that just need
// a legal/illegal answer pay no formatting cost.
type GroupError struct {
	fault      groupFault
	unit       string
	op         ir.Op
	bus        string
	transfers  int
	width      int
	constraint Constraint
}

// groupFault names the kind of grouping violation; zero means legal.
type groupFault uint8

const (
	faultNone groupFault = iota
	faultUnknownUnit
	faultUnitCannot
	faultUnitTwice
	faultUnknownBus
	faultBusWidth
	faultConstraint
)

// Reason describes the violation, e.g. "unit U1 used twice".
func (e *GroupError) Reason() string {
	switch e.fault {
	case faultUnknownUnit:
		return fmt.Sprintf("unknown unit %s", e.unit)
	case faultUnitCannot:
		return fmt.Sprintf("unit %s cannot perform %s", e.unit, e.op)
	case faultUnitTwice:
		return fmt.Sprintf("unit %s used twice", e.unit)
	case faultUnknownBus:
		return fmt.Sprintf("unknown bus %s", e.bus)
	case faultBusWidth:
		return fmt.Sprintf("bus %s carries %d transfers, width %d", e.bus, e.transfers, e.width)
	case faultConstraint:
		return fmt.Sprintf("violates constraint %s", e.constraint)
	}
	return "no violation"
}

func (e *GroupError) Error() string { return "isdl: illegal grouping: " + e.Reason() }

// BusUse is the number of transfers one instruction puts on a bus.
type BusUse struct {
	Bus string
	N   int
}

// CheckGroup decides whether one VLIW instruction containing the given
// computation slots and per-bus transfer counts is legal (Sec. IV-C.3):
//
//   - each functional unit may be used at most once,
//   - each bus carries at most its width in transfers, and
//   - no explicit Constraint is fully matched by the slots.
//
// It returns nil when legal, or a *GroupError describing the violation.
func (m *Machine) CheckGroup(slots []SlotRef, busUse map[string]int) error {
	if e := m.slotFault(slots); e.fault != faultNone {
		return &e
	}
	for bus, n := range busUse {
		if e := m.busFault(bus, n); e.fault != faultNone {
			return &e
		}
	}
	if e := m.constraintFault(slots); e.fault != faultNone {
		return &e
	}
	return nil
}

// LegalGroup is CheckGroup's verdict without the error: it reports
// whether the slots and per-bus transfer counts (one entry per bus)
// form a legal instruction, and it allocates nothing.
func (m *Machine) LegalGroup(slots []SlotRef, buses []BusUse) bool {
	if m.slotFault(slots).fault != faultNone {
		return false
	}
	for _, b := range buses {
		if m.busFault(b.Bus, b.N).fault != faultNone {
			return false
		}
	}
	return m.constraintFault(slots).fault == faultNone
}

// slotFault checks each slot's unit exists, can perform the op, and is
// not used by an earlier slot.
func (m *Machine) slotFault(slots []SlotRef) GroupError {
	for i, s := range slots {
		u := m.Unit(s.Unit)
		if u == nil {
			return GroupError{fault: faultUnknownUnit, unit: s.Unit}
		}
		if !u.Can(s.Op) {
			return GroupError{fault: faultUnitCannot, unit: s.Unit, op: s.Op}
		}
		for _, prev := range slots[:i] {
			if prev.Unit == s.Unit {
				return GroupError{fault: faultUnitTwice, unit: s.Unit}
			}
		}
	}
	return GroupError{}
}

// busFault checks n transfers fit on the named bus.
func (m *Machine) busFault(bus string, n int) GroupError {
	b := m.Bus(bus)
	if b == nil {
		return GroupError{fault: faultUnknownBus, bus: bus}
	}
	if n > b.Width {
		return GroupError{fault: faultBusWidth, bus: bus, transfers: n, width: b.Width}
	}
	return GroupError{}
}

// constraintFault checks no explicit constraint is fully matched.
func (m *Machine) constraintFault(slots []SlotRef) GroupError {
	for _, c := range m.Constraints {
		if matchesConstraint(slots, c) {
			return GroupError{fault: faultConstraint, constraint: c}
		}
	}
	return GroupError{}
}

func matchesConstraint(slots []SlotRef, c Constraint) bool {
	for _, want := range c.Forbid {
		found := false
		for _, s := range slots {
			if s == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
