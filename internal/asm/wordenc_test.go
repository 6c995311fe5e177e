package asm

import (
	"fmt"
	"sort"
	"testing"

	"aviv/internal/bench"
	"aviv/internal/ir"
	"aviv/internal/isdl"
)

// This file lowers programs to the fixed-width instruction words that
// NewWordLayout describes (layout in word.go), and decodes them back.
// bitWriter panics on a value that overflows its field or an
// instruction that overflows the layout's width, so encoding a program
// checks that the width NewWordLayout computes holds every instruction.

// WordProgram is a program lowered to fixed-width instruction words.
type WordProgram struct {
	Layout *WordLayout
	// Words holds the instruction stream, WordsPerInstr 64-bit words per
	// instruction, blocks concatenated in order.
	Words []uint64
	// BlockOffsets maps block names to instruction indices.
	BlockOffsets map[string]int
	// Consts is the constant pool.
	Consts []int64
	// Syms is the memory symbol pool.
	Syms []string
	// NumInstrs counts encoded instructions (bodies + control words).
	NumInstrs int
}

// ROMBits returns the total program size in ROM bits — the cost function
// the paper's introduction motivates.
func (p *WordProgram) ROMBits() int { return p.NumInstrs * p.Layout.Bits }

// wordFields holds what the encoder and decoder derive from a layout
// beyond its exported widths.
type wordFields struct {
	// unitOps fixes each unit's opcode numbering (sorted op list).
	unitOps map[string][]ir.Op
	// unitIdxBits, maxRegBits and endpointBits size a move endpoint
	// and a branch condition register.
	unitIdxBits, maxRegBits, endpointBits int
}

func fieldsOf(l *WordLayout) wordFields {
	f := wordFields{unitOps: make(map[string][]ir.Op), unitIdxBits: bitsFor(len(l.Machine.Banks()))}
	for _, u := range l.Machine.Units {
		f.unitOps[u.Name] = u.OpList()
		f.maxRegBits = max(f.maxRegBits, l.UnitRegBits[u.Name])
	}
	f.endpointBits = max(1+f.unitIdxBits+f.maxRegBits, 1+l.PoolBits)
	return f
}

type bitWriter struct {
	words []uint64
	pos   int // bit position within the current instruction
	base  int // word index of the current instruction
	width int // bits per instruction
}

func (w *bitWriter) beginInstr() {
	w.base = len(w.words)
	for i := 0; i < (w.width+63)/64; i++ {
		w.words = append(w.words, 0)
	}
	w.pos = 0
}

func (w *bitWriter) put(v uint64, bits int) {
	if bits == 0 {
		return
	}
	if v >= 1<<uint(bits) {
		panic(fmt.Sprintf("asm: value %d overflows %d-bit field", v, bits))
	}
	for i := 0; i < bits; i++ {
		if v&(1<<uint(i)) != 0 {
			idx := w.base + (w.pos+i)/64
			w.words[idx] |= 1 << uint((w.pos+i)%64)
		}
	}
	w.pos += bits
	if w.pos > w.width {
		panic("asm: instruction word overflow")
	}
}

type bitReader struct {
	words []uint64
	pos   int
	base  int
	width int
}

func (r *bitReader) beginInstr(instr int) {
	r.base = instr * ((r.width + 63) / 64)
	r.pos = 0
}

func (r *bitReader) get(bits int) uint64 {
	var v uint64
	for i := 0; i < bits; i++ {
		idx := r.base + (r.pos+i)/64
		if r.words[idx]&(1<<uint((r.pos+i)%64)) != 0 {
			v |= 1 << uint(i)
		}
	}
	r.pos += bits
	return v
}

// wordEncoder holds the per-program state of EncodeWords.
type wordEncoder struct {
	w        *bitWriter
	l        *WordLayout
	f        wordFields
	wp       *WordProgram
	constIdx map[int64]int
	symIdx   map[string]int
	unitIdx  map[string]int
	blockIdx map[string]int
}

func (e *wordEncoder) constOf(v int64) (int, error) {
	if i, ok := e.constIdx[v]; ok {
		return i, nil
	}
	i := len(e.wp.Consts)
	if i >= 1<<uint(e.l.PoolBits) {
		return 0, fmt.Errorf("asm: constant pool overflow")
	}
	e.constIdx[v] = i
	e.wp.Consts = append(e.wp.Consts, v)
	return i, nil
}

func (e *wordEncoder) symOf(s string) (int, error) {
	if i, ok := e.symIdx[s]; ok {
		return i, nil
	}
	i := len(e.wp.Syms)
	if i >= 1<<uint(e.l.PoolBits) {
		return 0, fmt.Errorf("asm: symbol pool overflow")
	}
	e.symIdx[s] = i
	e.wp.Syms = append(e.wp.Syms, s)
	return i, nil
}

// EncodeWords lowers a program to fixed-width instruction words.
func EncodeWords(p *Program) (*WordProgram, error) {
	l := NewWordLayout(p.Machine)
	e := &wordEncoder{
		w:        &bitWriter{width: l.Bits},
		l:        l,
		f:        fieldsOf(l),
		wp:       &WordProgram{Layout: l, BlockOffsets: make(map[string]int)},
		constIdx: make(map[int64]int),
		symIdx:   make(map[string]int),
		unitIdx:  make(map[string]int),
		blockIdx: make(map[string]int),
	}
	for i, b := range p.Machine.Banks() {
		e.unitIdx[b] = i
	}
	for i, b := range p.Blocks {
		e.blockIdx[b.Name] = i
	}
	wp := e.wp
	for _, b := range p.Blocks {
		wp.BlockOffsets[b.Name] = wp.NumInstrs
		for _, in := range b.Instrs {
			if err := e.datapath(in); err != nil {
				return nil, fmt.Errorf("asm: block %s: %w", b.Name, err)
			}
			wp.NumInstrs++
		}
		if b.Branch.Kind != BranchNone || b.Branch.Target != "" {
			if err := e.control(b.Branch); err != nil {
				return nil, fmt.Errorf("asm: block %s: %w", b.Name, err)
			}
			wp.NumInstrs++
		}
	}
	wp.Words = e.w.words
	return wp, nil
}

func (e *wordEncoder) datapath(in Instr) error {
	w, l, m := e.w, e.l, e.l.Machine
	w.beginInstr()
	w.put(0, 1) // datapath word

	opsByUnit := map[string]*MicroOp{}
	for i := range in.Ops {
		op := &in.Ops[i]
		if opsByUnit[op.Unit] != nil {
			return fmt.Errorf("unit %s used twice", op.Unit)
		}
		opsByUnit[op.Unit] = op
	}
	for _, u := range m.Units {
		op := opsByUnit[u.Name]
		opcBits := l.UnitOpcodeBits[u.Name]
		regBits := l.UnitRegBits[u.Name]
		opndBits := max(regBits, l.PoolBits)
		if op == nil {
			w.put(0, opcBits) // NOP
			w.put(0, regBits)
			for i := 0; i < l.MaxArity; i++ {
				w.put(0, 1+opndBits)
			}
			continue
		}
		code := uint64(1) // MOVI
		if op.Op != ir.OpConst {
			idx := opIndex(e.f.unitOps[u.Name], op.Op)
			if idx < 0 {
				return fmt.Errorf("unit %s cannot encode %s", u.Name, op.Op)
			}
			code = uint64(idx + 2)
		}
		w.put(code, opcBits)
		w.put(uint64(op.Dst), regBits)
		for i := 0; i < l.MaxArity; i++ {
			if i >= len(op.Srcs) {
				w.put(0, 1+opndBits)
				continue
			}
			s := op.Srcs[i]
			if s.IsImm {
				ci, err := e.constOf(s.Imm)
				if err != nil {
					return err
				}
				w.put(1, 1)
				w.put(uint64(ci), opndBits)
			} else {
				w.put(0, 1)
				w.put(uint64(s.Reg), opndBits)
			}
		}
	}

	movesByBus := map[string][]Move{}
	for _, mv := range in.Moves {
		movesByBus[mv.Bus] = append(movesByBus[mv.Bus], mv)
	}
	f := e.f
	putEndpoint := func(unit string, reg int, mem string) error {
		if unit == "" {
			w.put(1, 1)
			si, err := e.symOf(mem)
			if err != nil {
				return err
			}
			w.put(uint64(si), f.endpointBits-1)
			return nil
		}
		w.put(0, 1)
		w.put(uint64(e.unitIdx[unit]), f.unitIdxBits)
		w.put(uint64(reg), f.maxRegBits)
		w.put(0, f.endpointBits-1-f.unitIdxBits-f.maxRegBits)
		return nil
	}
	for _, bus := range m.Buses {
		moves := movesByBus[bus.Name]
		if len(moves) > bus.Width {
			return fmt.Errorf("bus %s carries %d moves, width %d", bus.Name, len(moves), bus.Width)
		}
		for slot := 0; slot < bus.Width; slot++ {
			if slot >= len(moves) {
				w.put(0, 1+2*f.endpointBits)
				continue
			}
			mv := moves[slot]
			w.put(1, 1)
			if err := putEndpoint(mv.FromUnit, mv.FromReg, mv.FromMem); err != nil {
				return err
			}
			if err := putEndpoint(mv.ToUnit, mv.ToReg, mv.ToMem); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *wordEncoder) control(br Branch) error {
	w, l, f := e.w, e.l, e.f
	w.beginInstr()
	w.put(1, 1) // control word
	w.put(uint64(br.Kind), 2)
	target := func(name string) (uint64, error) {
		if name == "" {
			return 0, nil
		}
		i, ok := e.blockIdx[name]
		if !ok {
			return 0, fmt.Errorf("unknown block %q", name)
		}
		return uint64(i), nil
	}
	if br.CondConst != nil {
		w.put(1, 1)
		ci, err := e.constOf(*br.CondConst)
		if err != nil {
			return err
		}
		w.put(uint64(ci), l.PoolBits)
		w.put(0, f.unitIdxBits+f.maxRegBits)
	} else {
		w.put(0, 1)
		if br.CondUnit != "" {
			w.put(uint64(e.unitIdx[br.CondUnit]), f.unitIdxBits)
		} else {
			w.put(0, f.unitIdxBits)
		}
		w.put(uint64(br.CondReg), f.maxRegBits)
		w.put(0, l.PoolBits)
	}
	t, err := target(br.Target)
	if err != nil {
		return err
	}
	w.put(t, l.PoolBits)
	el, err := target(br.Else)
	if err != nil {
		return err
	}
	w.put(el, l.PoolBits)
	return nil
}

func opIndex(ops []ir.Op, op ir.Op) int {
	for i, o := range ops {
		if o == op {
			return i
		}
	}
	return -1
}

// Disassemble decodes a WordProgram back into its instructions and
// control words, for checking the encoding field by field.
func (p *WordProgram) Disassemble(m *isdl.Machine) ([]Instr, []Branch, error) {
	l := p.Layout
	f := fieldsOf(l)
	r := &bitReader{words: p.Words, width: l.Bits}
	banks := m.Banks()

	var instrs []Instr
	var branches []Branch
	names := blockNames(p)
	for i := 0; i < p.NumInstrs; i++ {
		r.beginInstr(i)
		if r.get(1) == 1 {
			var br Branch
			br.Kind = BranchKind(r.get(2))
			if r.get(1) == 1 {
				ci := r.get(l.PoolBits)
				v := p.Consts[ci]
				br.CondConst = &v
				r.get(f.unitIdxBits + f.maxRegBits)
			} else {
				ui := r.get(f.unitIdxBits)
				if int(ui) < len(banks) {
					br.CondUnit = banks[ui]
				}
				br.CondReg = int(r.get(f.maxRegBits))
				r.get(l.PoolBits)
			}
			ti := r.get(l.PoolBits)
			ei := r.get(l.PoolBits)
			if int(ti) < len(names) {
				br.Target = names[ti]
			}
			if int(ei) < len(names) {
				br.Else = names[ei]
			}
			branches = append(branches, br)
			continue
		}
		var in Instr
		for _, u := range m.Units {
			opcBits := l.UnitOpcodeBits[u.Name]
			regBits := l.UnitRegBits[u.Name]
			opndBits := max(regBits, l.PoolBits)
			code := r.get(opcBits)
			dst := int(r.get(regBits))
			var srcs []Operand
			for k := 0; k < l.MaxArity; k++ {
				tag := r.get(1)
				val := r.get(opndBits)
				srcs = append(srcs, Operand{IsImm: tag == 1, Imm: int64(val), Reg: int(val)})
			}
			if code == 0 {
				continue // NOP slot
			}
			op := MicroOp{Unit: u.Name, Dst: dst}
			if code == 1 {
				op.Op = ir.OpConst
				op.Srcs = srcs[:1]
			} else {
				op.Op = f.unitOps[u.Name][code-2]
				op.Srcs = srcs[:op.Op.Arity()]
			}
			for k := range op.Srcs {
				if op.Srcs[k].IsImm {
					op.Srcs[k].Imm = p.Consts[op.Srcs[k].Imm]
				}
			}
			in.Ops = append(in.Ops, op)
		}
		readEndpoint := func() (unit string, reg int, mem string) {
			if r.get(1) == 1 {
				si := r.get(f.endpointBits - 1)
				return "", 0, p.Syms[si]
			}
			ui := r.get(f.unitIdxBits)
			reg = int(r.get(f.maxRegBits))
			r.get(f.endpointBits - 1 - f.unitIdxBits - f.maxRegBits)
			if int(ui) < len(banks) {
				return banks[ui], reg, ""
			}
			return "", reg, ""
		}
		for _, bus := range m.Buses {
			for slot := 0; slot < bus.Width; slot++ {
				if r.get(1) == 0 {
					r.get(2 * f.endpointBits)
					continue
				}
				mv := Move{Bus: bus.Name}
				mv.FromUnit, mv.FromReg, mv.FromMem = readEndpoint()
				mv.ToUnit, mv.ToReg, mv.ToMem = readEndpoint()
				in.Moves = append(in.Moves, mv)
			}
		}
		instrs = append(instrs, in)
	}
	return instrs, branches, nil
}

// blockNames lists p's blocks in offset order, the order EncodeWords
// numbered them in.
func blockNames(p *WordProgram) []string {
	names := make([]string, 0, len(p.BlockOffsets))
	for n := range p.BlockOffsets {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return p.BlockOffsets[names[i]] < p.BlockOffsets[names[j]] })
	return names
}

func BenchmarkEncodeWords(b *testing.B) {
	m := isdl.ExampleArch(4)
	p := &Program{Machine: m, Blocks: []*Block{emit(b, bench.FIR(8), m)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeWords(p); err != nil {
			b.Fatal(err)
		}
	}
}
