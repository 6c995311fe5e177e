package asm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"

	"aviv/internal/ir"
	"aviv/internal/isdl"
)

// Block codec: the finished code of one basic block, before layout, as
// aviv's per-block cache persists it. Unlike the object format
// (Encode), an encoded block is read back against the source block it
// was compiled from and the machine it was compiled for:
//
//   - Units and buses are indexes into m.Units and m.Buses, so decode
//     allocates no name string. A register bank is named by the index
//     of the first unit on it.
//   - The block name and the branch targets are not stored: they are
//     the source block's Name and Succs. The branch stores its kind and
//     its condition register or constant only, and decode checks the
//     kind against the source block's terminator.
//   - Memory names (variables and spill slots) are substrings of one
//     pooled string.
//   - Totals come first, so decode carves instructions, micro-ops,
//     moves and operands each from one slab.
//
// Layout (uvarints unless marked):
//
//	#instrs #ops #moves #srcs
//	pool length, pool bytes
//	per instr: #ops #moves
//	  per op:   unit, op, dst, #srcs, per src: 0 reg | 1 imm (varint)
//	  per move: bus, from, to; an endpoint is 0 unit reg | 1 offset length
//	branch kind (byte); for BranchCond: 0 unit reg | 1 const (varint)
//
// The layout carries no version of its own. A caller that persists it
// versions its entries and must bump that version when the layout
// changes.

// AppendBlock appends the encoding of b, the pre-layout code of a block
// compiled for m, to dst. It fails when b names a unit, bank or bus that
// m does not have.
func AppendBlock(dst []byte, b *Block, m *isdl.Machine) ([]byte, error) {
	var nOps, nMoves, nSrcs int
	var pool []byte
	offset := map[string]int{}
	intern := func(name string) {
		if _, ok := offset[name]; !ok {
			offset[name] = len(pool)
			pool = append(pool, name...)
		}
	}
	for _, in := range b.Instrs {
		nOps += len(in.Ops)
		nMoves += len(in.Moves)
		for _, op := range in.Ops {
			nSrcs += len(op.Srcs)
		}
		for _, mv := range in.Moves {
			if mv.FromUnit == "" {
				intern(mv.FromMem)
			}
			if mv.ToUnit == "" {
				intern(mv.ToMem)
			}
		}
	}
	w := &writer{buf: dst}
	for _, n := range []int{len(b.Instrs), nOps, nMoves, nSrcs, len(pool)} {
		w.uvarint(uint64(n))
	}
	w.buf = append(w.buf, pool...)
	endpoint := func(bank string, reg int, mem string) error {
		if bank == "" {
			w.u8(1)
			w.uvarint(uint64(offset[mem]))
			w.uvarint(uint64(len(mem)))
			return nil
		}
		i := bankIndex(m, bank)
		if i < 0 {
			return fmt.Errorf("asm: block %s: no register bank %s on %s", b.Name, bank, m.Name)
		}
		w.u8(0)
		w.uvarint(uint64(i))
		w.uvarint(uint64(reg))
		return nil
	}
	for _, in := range b.Instrs {
		w.uvarint(uint64(len(in.Ops)))
		w.uvarint(uint64(len(in.Moves)))
		for _, op := range in.Ops {
			u := unitIndex(m, op.Unit)
			if u < 0 {
				return nil, fmt.Errorf("asm: block %s: no unit %s on %s", b.Name, op.Unit, m.Name)
			}
			w.uvarint(uint64(u))
			w.u8(byte(op.Op))
			w.uvarint(uint64(op.Dst))
			w.uvarint(uint64(len(op.Srcs)))
			for _, s := range op.Srcs {
				if s.IsImm {
					w.u8(1)
					w.varint(s.Imm)
				} else {
					w.u8(0)
					w.uvarint(uint64(s.Reg))
				}
			}
		}
		for _, mv := range in.Moves {
			bus := busIndex(m, mv.Bus)
			if bus < 0 {
				return nil, fmt.Errorf("asm: block %s: no bus %s on %s", b.Name, mv.Bus, m.Name)
			}
			w.uvarint(uint64(bus))
			if err := endpoint(mv.FromUnit, mv.FromReg, mv.FromMem); err != nil {
				return nil, err
			}
			if err := endpoint(mv.ToUnit, mv.ToReg, mv.ToMem); err != nil {
				return nil, err
			}
		}
	}
	w.u8(byte(b.Branch.Kind))
	if b.Branch.Kind == BranchCond {
		if c := b.Branch.CondConst; c != nil {
			w.u8(1)
			w.varint(*c)
		} else if err := endpoint(b.Branch.CondUnit, b.Branch.CondReg, ""); err != nil {
			return nil, err
		}
	}
	return w.buf, nil
}

func unitIndex(m *isdl.Machine, name string) int {
	for i, u := range m.Units {
		if u.Name == name {
			return i
		}
	}
	return -1
}

func bankIndex(m *isdl.Machine, bank string) int {
	for i, u := range m.Units {
		if u.Regs.Name == bank {
			return i
		}
	}
	return -1
}

func busIndex(m *isdl.Machine, name string) int {
	for i, b := range m.Buses {
		if b.Name == name {
			return i
		}
	}
	return -1
}

// errTruncated is the one error of a read past the end of an encoding.
var errTruncated = errors.New("asm: truncated block encoding")

// blockReader is a cursor over an encoded block. The first error
// sticks: every later read returns zero.
type blockReader struct {
	b   []byte
	err error
}

func (r *blockReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *blockReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail(errTruncated)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *blockReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *blockReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// tag reads a one-byte form tag: 0 for a register, 1 for an immediate
// or a memory name.
func (r *blockReader) tag() bool {
	t := r.u8()
	if t > 1 {
		r.fail(fmt.Errorf("asm: bad operand tag %d", t))
	}
	return t == 1
}

// count reads a length of at most limit.
func (r *blockReader) count(limit int) int {
	v := r.uvarint()
	if v > uint64(limit) {
		r.fail(fmt.Errorf("asm: block encoding count %d exceeds %d", v, limit))
		return 0
	}
	return int(v)
}

// unit reads a unit index.
func (r *blockReader) unit(m *isdl.Machine) *isdl.Unit {
	i := r.uvarint()
	if r.err != nil {
		return nil
	}
	if i >= uint64(len(m.Units)) {
		r.fail(fmt.Errorf("asm: unit index %d out of range on %s", i, m.Name))
		return nil
	}
	return m.Units[i]
}

// reg reads a register of u's bank.
func (r *blockReader) reg(u *isdl.Unit) int {
	v := r.uvarint()
	if r.err == nil && v >= uint64(u.Regs.Size) {
		r.fail(fmt.Errorf("asm: register R%d outside bank %s of %d", v, u.Regs.Name, u.Regs.Size))
		return 0
	}
	return int(v)
}

// endpoint reads a move endpoint: a bank register, or a memory name
// sliced from pool.
func (r *blockReader) endpoint(m *isdl.Machine, pool string) (bank string, reg int, mem string) {
	if r.tag() {
		off, n := r.count(len(pool)), r.count(len(pool))
		if r.err == nil && off+n > len(pool) {
			r.fail(fmt.Errorf("asm: memory name [%d:%d] outside a %d-byte pool", off, off+n, len(pool)))
		}
		if r.err != nil {
			return "", 0, ""
		}
		return "", 0, pool[off : off+n]
	}
	u := r.unit(m)
	if u == nil {
		return "", 0, ""
	}
	return u.Regs.Name, r.reg(u), ""
}

// DecodeBlock reads back a block AppendBlock encoded for the code of src
// on m. It fails cleanly, never panics, on any input that is not such an
// encoding as a whole: a truncation, trailing bytes, a unit or bus
// index out of range, a register outside its bank, an op that is no
// computation or constant, counts that disagree with their totals, or a
// branch that does not match src's terminator.
func DecodeBlock(data []byte, src *ir.Block, m *isdl.Machine) (*Block, error) {
	r := &blockReader{b: data}
	limit := len(data)
	nInstrs, nOps, nMoves, nSrcs := r.count(limit), r.count(limit), r.count(limit), r.count(limit)
	poolLen := r.count(limit)
	if r.err == nil && poolLen > len(r.b) {
		r.fail(errTruncated)
	}
	if r.err != nil {
		return nil, r.err
	}
	pool := string(r.b[:poolLen])
	r.b = r.b[poolLen:]

	out := &Block{Name: src.Name}
	if nInstrs > 0 {
		out.Instrs = make([]Instr, nInstrs)
	}
	ops := make([]MicroOp, nOps)
	moves := make([]Move, nMoves)
	srcs := make([]Operand, nSrcs)
	for i := range out.Instrs {
		in := &out.Instrs[i]
		no, nm := r.count(len(ops)), r.count(len(moves))
		if r.err != nil {
			return nil, r.err
		}
		if no > 0 {
			in.Ops, ops = ops[:no:no], ops[no:]
		}
		if nm > 0 {
			in.Moves, moves = moves[:nm:nm], moves[nm:]
		}
		for k := range in.Ops {
			op := &in.Ops[k]
			u := r.unit(m)
			code := ir.Op(r.u8())
			if r.err != nil {
				return nil, r.err
			}
			if !code.Valid() || (code != ir.OpConst && !code.IsComputation()) {
				return nil, fmt.Errorf("asm: invalid op %s on unit %s", code, u.Name)
			}
			op.Unit, op.Op, op.Dst = u.Name, code, r.reg(u)
			ns := r.count(len(srcs))
			if ns > 0 {
				op.Srcs, srcs = srcs[:ns:ns], srcs[ns:]
			}
			for s := range op.Srcs {
				if r.tag() {
					op.Srcs[s] = Operand{IsImm: true, Imm: r.varint()}
				} else {
					op.Srcs[s].Reg = r.reg(u)
				}
			}
		}
		for k := range in.Moves {
			mv := &in.Moves[k]
			bus := r.uvarint()
			if r.err == nil && bus >= uint64(len(m.Buses)) {
				r.fail(fmt.Errorf("asm: bus index %d out of range on %s", bus, m.Name))
			}
			if r.err != nil {
				return nil, r.err
			}
			mv.Bus = m.Buses[bus].Name
			mv.FromUnit, mv.FromReg, mv.FromMem = r.endpoint(m, pool)
			mv.ToUnit, mv.ToReg, mv.ToMem = r.endpoint(m, pool)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(ops)+len(moves)+len(srcs) != 0 {
		return nil, fmt.Errorf("asm: block totals exceed its instructions by %d ops, %d moves, %d operands",
			len(ops), len(moves), len(srcs))
	}
	if err := r.branch(out, src, m); err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("asm: %d trailing bytes after block %s", len(r.b), src.Name)
	}
	return out, nil
}

// branch reads the block's branch kind and condition, taking the
// targets from src.
func (r *blockReader) branch(out *Block, src *ir.Block, m *isdl.Machine) error {
	out.Branch = terminator(src)
	kind := BranchKind(r.u8())
	if r.err != nil {
		return r.err
	}
	if kind != out.Branch.Kind {
		return fmt.Errorf("asm: branch kind %d, but block %s ends in kind %d", kind, src.Name, out.Branch.Kind)
	}
	if kind != BranchCond {
		return nil
	}
	constant := src.Cond.Op == ir.OpConst
	if r.tag() {
		c := r.varint()
		if r.err == nil && (!constant || c != src.Cond.Const) {
			return fmt.Errorf("asm: block %s branches on #%d, not on its condition", src.Name, c)
		}
		out.Branch.CondConst = &c
	} else {
		u := r.unit(m)
		if u == nil {
			return r.err
		}
		if constant {
			return fmt.Errorf("asm: block %s branches on a register, not on its constant condition", src.Name)
		}
		out.Branch.CondUnit, out.Branch.CondReg = u.Regs.Name, r.reg(u)
	}
	return r.err
}

// Retained sizes of the code's parts, for Footprint.
var (
	blockSize   = int64(reflect.TypeOf(Block{}).Size())
	instrSize   = int64(reflect.TypeOf(Instr{}).Size())
	microOpSize = int64(reflect.TypeOf(MicroOp{}).Size())
	moveSize    = int64(reflect.TypeOf(Move{}).Size())
	operandSize = int64(reflect.TypeOf(Operand{}).Size())
)

// Footprint estimates the bytes b retains: its block, instruction,
// micro-op, move and operand structs plus the memory names it spells.
// Unit, bank and bus names belong to the machine and are not counted.
// It is an accounting figure for cache statistics, not an allocator
// measurement.
func (b *Block) Footprint() int64 {
	n := blockSize + int64(len(b.Instrs))*instrSize
	for _, in := range b.Instrs {
		n += int64(len(in.Ops))*microOpSize + int64(len(in.Moves))*moveSize
		for _, op := range in.Ops {
			n += int64(len(op.Srcs)) * operandSize
		}
		for _, mv := range in.Moves {
			n += int64(len(mv.FromMem) + len(mv.ToMem))
		}
	}
	return n
}
