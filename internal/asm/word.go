package asm

import (
	"fmt"
	"strings"

	"aviv/internal/isdl"
)

// This file derives the bit-level VLIW instruction-word layout
// mechanically from the machine description, the way the paper's
// ISDL-generated assembler would. It makes the optimization objective
// concrete: the paper minimizes code size because on-chip ROM is the
// scarce resource, and ROM bits = instructions × word width. The
// encoder that lowers programs to these words, and so checks that the
// width holds every instruction, is in wordenc_test.go.
//
// Word layout (all fields fixed-width, sized from the machine):
//
//	[1 bit]  kind: 0 = datapath word, 1 = control word
//	datapath: per unit  — opcode (0 = NOP, 1 = MOVI, 2.. = ops),
//	                      dst reg, maxArity × (1-bit imm tag + operand)
//	          per bus   — Width × slots: 1-bit valid,
//	                      src (1-bit mem tag + unit/reg or symbol),
//	                      dst (same)
//	control:  2-bit kind (JMP/BNZ/HALT/FALL), cond unit+reg+imm-tag,
//	          two block indices
//
// Immediates and memory names index per-program constant/symbol pools
// (standard practice for wide-immediate VLIW encodings).

// WordLayout describes the instruction word derived from a machine.
type WordLayout struct {
	Machine *isdl.Machine

	// Bits is the total instruction word width.
	Bits int
	// UnitOpcodeBits maps each unit to its opcode field width.
	UnitOpcodeBits map[string]int
	// UnitRegBits maps each unit to its register field width.
	UnitRegBits map[string]int
	// MaxArity is the operand field count per unit slot.
	MaxArity int
	// PoolBits is the width of constant-pool and symbol-pool indices.
	PoolBits int
}

// NewWordLayout computes the fixed instruction-word layout for a machine.
func NewWordLayout(m *isdl.Machine) *WordLayout {
	l := &WordLayout{
		Machine:        m,
		UnitOpcodeBits: make(map[string]int),
		UnitRegBits:    make(map[string]int),
		PoolBits:       12,
		MaxArity:       1,
	}
	for _, u := range m.Units {
		l.UnitOpcodeBits[u.Name] = bitsFor(len(u.Ops) + 2) // +NOP +MOVI
		l.UnitRegBits[u.Name] = bitsFor(m.BankSize(u.Regs.Name))
		for op := range u.Ops {
			if op.Arity() > l.MaxArity {
				l.MaxArity = op.Arity()
			}
		}
	}
	bits := 1 // kind bit
	for _, u := range m.Units {
		bits += l.UnitOpcodeBits[u.Name] // opcode
		bits += l.UnitRegBits[u.Name]    // dst
		// operands: tag + max(reg field, pool index)
		opnd := l.UnitRegBits[u.Name]
		if l.PoolBits > opnd {
			opnd = l.PoolBits
		}
		bits += l.MaxArity * (1 + opnd)
	}
	unitIdxBits := bitsFor(len(m.Banks()))
	maxRegBits := 0
	for _, u := range m.Units {
		if b := l.UnitRegBits[u.Name]; b > maxRegBits {
			maxRegBits = b
		}
	}
	endpoint := 1 + unitIdxBits + maxRegBits
	if 1+l.PoolBits > endpoint {
		endpoint = 1 + l.PoolBits
	}
	for _, b := range m.Buses {
		bits += b.Width * (1 + 2*endpoint)
	}
	// A control word must also fit in Bits; it is small (2 + cond + 2
	// block indices), so the datapath dominates, but take the max anyway.
	control := 1 + 2 + 1 + unitIdxBits + maxRegBits + l.PoolBits + 2*l.PoolBits
	if control > bits {
		bits = control
	}
	l.Bits = bits
	return l
}

func bitsFor(n int) int {
	b := 1
	for (1 << b) < n {
		b++
	}
	return b
}

// WordsPerInstr returns how many 64-bit words hold one instruction.
func (l *WordLayout) WordsPerInstr() int { return (l.Bits + 63) / 64 }

// Describe renders the layout (for isdldump).
func (l *WordLayout) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "instruction word: %d bits (%d x 64-bit words)\n", l.Bits, l.WordsPerInstr())
	for _, u := range l.Machine.Units {
		fmt.Fprintf(&sb, "  unit %-4s opcode %d bits, reg %d bits, %d operand fields\n",
			u.Name, l.UnitOpcodeBits[u.Name], l.UnitRegBits[u.Name], l.MaxArity)
	}
	for _, b := range l.Machine.Buses {
		fmt.Fprintf(&sb, "  bus  %-4s %d move slot(s)\n", b.Name, b.Width)
	}
	return sb.String()
}
