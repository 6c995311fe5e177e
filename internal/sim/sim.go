// Package sim is the instruction-level simulator of the paper's Fig. 1
// flow: it executes compiled VLIW programs on the modeled target
// processor, with per-unit register files, a data memory, and
// parallel-slot semantics (all reads of an instruction happen before any
// write). The reproduction uses it to validate that generated code
// computes exactly what the source DAGs specify.
package sim

import (
	"errors"
	"fmt"

	"aviv/internal/asm"
	"aviv/internal/ir"
)

// ErrStepBudget is returned when execution exceeds its cycle budget.
var ErrStepBudget = errors.New("sim: cycle budget exhausted (infinite loop?)")

// Machine is the simulated processor state. Writes commit after their
// operation's latency (the machine has no interlocks): an instruction
// reading a register before the producing operation completes observes
// the stale value, exactly as the modeled hardware would. Compiled code
// is latency-correct by construction; the simulator's delayed commit
// makes any compiler violation visible as a wrong result.
type Machine struct {
	prog *asm.Program
	regs map[string][]int64
	mem  map[string]int64

	// pendingW holds in-flight results awaiting their commit cycle.
	pendingW []delayedWrite

	// Cycles counts executed instructions (including control transfers).
	Cycles int
	// TraceFn, when set, receives one line per executed instruction.
	TraceFn func(string)
}

// New prepares a simulator for the program with the given initial data
// memory (copied).
func New(p *asm.Program, mem map[string]int64) *Machine {
	m := &Machine{
		prog: p,
		regs: make(map[string][]int64),
		mem:  make(map[string]int64, len(mem)),
	}
	for _, bank := range p.Machine.Banks() {
		m.regs[bank] = make([]int64, p.Machine.BankSize(bank))
	}
	for k, v := range mem {
		m.mem[k] = v
	}
	return m
}

// Mem returns the current data-memory contents (live map; callers must
// not mutate during Run).
func (m *Machine) Mem() map[string]int64 { return m.mem }

// Reg returns a register value from the named bank (for plain machines a
// unit's bank carries the unit's name).
func (m *Machine) Reg(bank string, r int) (int64, error) {
	b, ok := m.regs[bank]
	if !ok {
		return 0, fmt.Errorf("sim: unknown register bank %s", bank)
	}
	if r < 0 || r >= len(b) {
		return 0, fmt.Errorf("sim: register %s.R%d out of range", bank, r)
	}
	return b[r], nil
}

// Run executes the program from its first block until HALT or the cycle
// budget is exhausted. maxCycles <= 0 selects a default of 1e6.
func (m *Machine) Run(maxCycles int) error {
	if maxCycles <= 0 {
		maxCycles = 1_000_000
	}
	if len(m.prog.Blocks) == 0 {
		return nil
	}
	defer m.flush()
	cur := m.prog.Blocks[0]
	for {
		for _, in := range cur.Instrs {
			if m.Cycles >= maxCycles {
				return ErrStepBudget
			}
			if err := m.exec(in); err != nil {
				return fmt.Errorf("sim: block %s: %w", cur.Name, err)
			}
			m.Cycles++
		}
		m.commit(m.Cycles) // condition registers commit before the branch reads
		next, halted, err := m.branch(cur)
		if err != nil {
			return err
		}
		if halted {
			m.flush()
			return nil
		}
		if m.Cycles >= maxCycles {
			return ErrStepBudget
		}
		nb := m.prog.Block(next)
		if nb == nil {
			return fmt.Errorf("sim: jump to unknown block %q", next)
		}
		cur = nb
	}
}

type delayedWrite struct {
	unit string // "" = memory
	reg  int
	mem  string
	val  int64
	at   int // cycle at which the result becomes visible
}

// commit applies every in-flight write due at or before the given cycle.
func (m *Machine) commit(now int) {
	var keep []delayedWrite
	for _, w := range m.pendingW {
		if w.at > now {
			keep = append(keep, w)
			continue
		}
		if w.unit == "" && w.reg == -1 {
			m.mem[w.mem] = w.val
		} else {
			m.regs[w.unit][w.reg] = w.val
		}
	}
	m.pendingW = keep
}

// flush commits every in-flight write (pipeline drain at HALT).
func (m *Machine) flush() { m.commit(1 << 60) }

// exec runs one VLIW instruction: results commit after their latency, so
// same-cycle and too-early reads observe pre-instruction state.
func (m *Machine) exec(in asm.Instr) error {
	m.commit(m.Cycles)
	type write = delayedWrite
	var writes []write

	for _, op := range in.Ops {
		bank, ok := m.regs[m.prog.Machine.BankOf(op.Unit)]
		if !ok {
			return fmt.Errorf("unknown unit %s", op.Unit)
		}
		args := make([]int64, len(op.Srcs))
		for i, s := range op.Srcs {
			if s.IsImm {
				args[i] = s.Imm
				continue
			}
			if s.Reg < 0 || s.Reg >= len(bank) {
				return fmt.Errorf("%s.R%d out of range", op.Unit, s.Reg)
			}
			args[i] = bank[s.Reg]
		}
		var v int64
		if op.Op == ir.OpConst {
			v = args[0] // MOVI
		} else {
			var err error
			v, err = ir.EvalOp(op.Op, args...)
			if err != nil {
				return err
			}
		}
		if op.Dst < 0 || op.Dst >= len(bank) {
			return fmt.Errorf("%s.R%d destination out of range", op.Unit, op.Dst)
		}
		lat := 1
		if op.Op.IsComputation() {
			if u := m.prog.Machine.Unit(op.Unit); u != nil {
				lat = u.LatencyOf(op.Op)
			}
		}
		writes = append(writes, write{unit: m.prog.Machine.BankOf(op.Unit), reg: op.Dst, val: v, at: m.Cycles + lat})
	}

	for _, mv := range in.Moves {
		var v int64
		if mv.FromUnit == "" {
			v = m.mem[mv.FromMem]
		} else {
			bank, ok := m.regs[mv.FromUnit]
			if !ok {
				return fmt.Errorf("unknown unit %s", mv.FromUnit)
			}
			if mv.FromReg < 0 || mv.FromReg >= len(bank) {
				return fmt.Errorf("%s.R%d out of range", mv.FromUnit, mv.FromReg)
			}
			v = bank[mv.FromReg]
		}
		if mv.ToUnit == "" {
			writes = append(writes, write{mem: mv.ToMem, unit: "", reg: -1, val: v, at: m.Cycles + 1})
		} else {
			bank, ok := m.regs[mv.ToUnit]
			if !ok {
				return fmt.Errorf("unknown unit %s", mv.ToUnit)
			}
			if mv.ToReg < 0 || mv.ToReg >= len(bank) {
				return fmt.Errorf("%s.R%d out of range", mv.ToUnit, mv.ToReg)
			}
			writes = append(writes, write{unit: mv.ToUnit, reg: mv.ToReg, val: v, at: m.Cycles + 1})
		}
	}

	m.pendingW = append(m.pendingW, writes...)
	if m.TraceFn != nil {
		m.TraceFn(fmt.Sprintf("cycle %d: %s", m.Cycles, in.String()))
	}
	return nil
}

func (m *Machine) branch(b *asm.Block) (next string, halted bool, err error) {
	br := b.Branch
	switch br.Kind {
	case asm.BranchHalt:
		return "", true, nil
	case asm.BranchNone:
		if br.Target == "" {
			return "", true, nil
		}
		return br.Target, false, nil
	case asm.BranchJump:
		m.Cycles++ // the jump instruction itself
		return br.Target, false, nil
	case asm.BranchCond:
		m.Cycles++
		var c int64
		if br.CondConst != nil {
			c = *br.CondConst
		} else {
			c, err = m.Reg(br.CondUnit, br.CondReg)
			if err != nil {
				return "", false, err
			}
		}
		if c != 0 {
			return br.Target, false, nil
		}
		return br.Else, false, nil
	}
	return "", false, fmt.Errorf("sim: bad branch kind %d", br.Kind)
}

// RunProgram is a convenience wrapper: execute prog against a copy of
// mem, returning the final memory.
func RunProgram(p *asm.Program, mem map[string]int64, maxCycles int) (map[string]int64, int, error) {
	m := New(p, mem)
	err := m.Run(maxCycles)
	return m.mem, m.Cycles, err
}
