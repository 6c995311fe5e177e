package asm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"aviv/internal/ir"
	"aviv/internal/isdl"
)

// The binary form of asm code: one layout for a block's code (its
// instructions and the kind and condition of its branch), in two
// framings.
//
//   - The object file (Encode, Decode) is the assembler/loader pair of
//     the paper's Fig. 1. It frames each block's code with the block's
//     name and branch targets; the loader checks the program it reads
//     as ParseProgram checks text.
//   - A block entry (AppendBlock, DecodeBlock) is the code alone, as
//     aviv's per-block cache persists a block before layout. Decode
//     takes the name and targets from the source block the code was
//     compiled from and checks the branch against its terminator.
//
// Units and buses are indexes into m.Units and m.Buses, so decode
// allocates no name; a register bank is the index of its first unit.
// Memory names (variables, spill slots) are substrings of one pooled
// string. Totals come first, so decode carves instructions, micro-ops,
// moves and operands each from one slab.
//
// Layout (uvarints unless marked; a string is its length, then its
// bytes):
//
//	code:
//	  #instrs #ops #moves #srcs, pool string
//	  per instr: #ops #moves
//	    per op:   unit, op (byte), dst, #srcs, per src: 0 reg | 1 imm (varint)
//	    per move: bus, from, to; an endpoint is 0 unit reg | 1 offset length
//	  branch kind (byte); for BranchCond: 0 unit reg | 1 const (varint)
//	object:
//	  magic "AVOB", version (byte), machine name, #blocks
//	  per block: name, target, else, code
//
// The code carries no version of its own: the object's is objVersion,
// and a cache that persists block entries versions them and must bump
// that version when the code layout changes.
const (
	objMagic   = "AVOB"
	objVersion = 2
)

type writer struct{ buf []byte }

func (w *writer) u8(v byte)        { w.buf = append(w.buf, v) }
func (w *writer) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Encode assembles p into its binary object form. It fails when p names
// a unit, bank or bus that its machine does not have.
func Encode(p *Program) ([]byte, error) {
	w := &writer{buf: append([]byte(objMagic), objVersion)}
	w.str(p.Machine.Name)
	w.uvarint(uint64(len(p.Blocks)))
	for _, b := range p.Blocks {
		w.str(b.Name)
		w.str(b.Branch.Target)
		w.str(b.Branch.Else)
		if err := w.code(b, p.Machine); err != nil {
			return nil, err
		}
	}
	return w.buf, nil
}

// AppendBlock appends the code of b, a block compiled for m, to dst. It
// fails when b names a unit, bank or bus that m does not have.
func AppendBlock(dst []byte, b *Block, m *isdl.Machine) ([]byte, error) {
	w := &writer{buf: dst}
	if err := w.code(b, m); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// code writes b's instructions and the kind and condition of its
// branch.
func (w *writer) code(b *Block, m *isdl.Machine) error {
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
				return fmt.Errorf("asm: block %s: no unit %s on %s", b.Name, op.Unit, m.Name)
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
				return fmt.Errorf("asm: block %s: no bus %s on %s", b.Name, mv.Bus, m.Name)
			}
			w.uvarint(uint64(bus))
			if err := endpoint(mv.FromUnit, mv.FromReg, mv.FromMem); err != nil {
				return err
			}
			if err := endpoint(mv.ToUnit, mv.ToReg, mv.ToMem); err != nil {
				return err
			}
		}
	}
	w.u8(byte(b.Branch.Kind))
	if b.Branch.Kind == BranchCond {
		if c := b.Branch.CondConst; c != nil {
			w.u8(1)
			w.varint(*c)
		} else {
			return endpoint(b.Branch.CondUnit, b.Branch.CondReg, "")
		}
	}
	return nil
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

// Decode loads a binary object into a Program for m. It fails cleanly,
// never panics, on any input that is not an object for m as a whole,
// and checks the program it loads as ParseProgram checks text.
func Decode(data []byte, m *isdl.Machine) (*Program, error) {
	if len(data) < len(objMagic)+1 || string(data[:len(objMagic)]) != objMagic {
		return nil, fmt.Errorf("asm: bad magic")
	}
	if v := data[len(objMagic)]; v != objVersion {
		return nil, fmt.Errorf("asm: unsupported object version %d", v)
	}
	r := &reader{b: data[len(objMagic)+1:]}
	if name := r.str(); r.err == nil && name != m.Name {
		return nil, fmt.Errorf("asm: object built for machine %q, loading on %q", name, m.Name)
	}
	p := &Program{Machine: m}
	for n := r.count(len(r.b)); n > 0 && r.err == nil; n-- {
		b := &Block{Name: r.str()}
		target, els := r.str(), r.str()
		r.code(b, m)
		b.Branch.Target, b.Branch.Else = target, els
		p.Blocks = append(p.Blocks, b)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("asm: %d trailing bytes after the object's blocks", len(r.b))
	}
	if err := validateProgram(p); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeBlock reads back a block AppendBlock encoded for the code of src
// on m. It fails cleanly, never panics, on any input that is not such an
// encoding as a whole: a truncation, trailing bytes, a unit or bus
// index out of range, a register outside its bank, an op that is no
// computation or constant, counts that disagree with their totals, or a
// branch that does not match src's terminator.
func DecodeBlock(data []byte, src *ir.Block, m *isdl.Machine) (*Block, error) {
	r := &reader{b: data}
	out := &Block{Name: src.Name}
	r.code(out, m)
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("asm: %d trailing bytes after block %s", len(r.b), src.Name)
	}
	want, br := terminator(src), &out.Branch
	if br.Kind != want.Kind {
		return nil, fmt.Errorf("asm: branch kind %d, but block %s ends in kind %d", br.Kind, src.Name, want.Kind)
	}
	if br.Kind == BranchCond {
		constant := src.Cond.Op == ir.OpConst
		if c := br.CondConst; c != nil && (!constant || *c != src.Cond.Const) {
			return nil, fmt.Errorf("asm: block %s branches on #%d, not on its condition", src.Name, *c)
		}
		if br.CondConst == nil && constant {
			return nil, fmt.Errorf("asm: block %s branches on a register, not on its constant condition", src.Name)
		}
	}
	br.Target, br.Else = want.Target, want.Else
	return out, nil
}

// errTruncated is the one error of a read past the end of an encoding.
var errTruncated = errors.New("asm: truncated encoding")

// reader is a cursor over an encoding. The first error sticks: every
// later read returns zero.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) u8() byte {
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

func (r *reader) uvarint() uint64 {
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

func (r *reader) varint() int64 {
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
func (r *reader) tag() bool {
	t := r.u8()
	if t > 1 {
		r.fail(fmt.Errorf("asm: bad operand tag %d", t))
	}
	return t == 1
}

// count reads a length of at most limit.
func (r *reader) count(limit int) int {
	v := r.uvarint()
	if v > uint64(limit) {
		r.fail(fmt.Errorf("asm: encoding count %d exceeds %d", v, limit))
		return 0
	}
	return int(v)
}

// str reads a length-prefixed string.
func (r *reader) str() string {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)) {
		r.fail(errTruncated)
	}
	if r.err != nil {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// unit reads a unit index.
func (r *reader) unit(m *isdl.Machine) *isdl.Unit {
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
func (r *reader) reg(u *isdl.Unit) int {
	v := r.uvarint()
	if r.err == nil && v >= uint64(u.Regs.Size) {
		r.fail(fmt.Errorf("asm: register R%d outside bank %s of %d", v, u.Regs.Name, u.Regs.Size))
		return 0
	}
	return int(v)
}

// endpoint reads a move endpoint: a bank register, or a memory name
// sliced from pool.
func (r *reader) endpoint(m *isdl.Machine, pool string) (bank string, reg int, mem string) {
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

// code reads what writer.code wrote into out: the instructions and the
// branch kind and condition. Every count is bounded by the bytes left,
// so no input makes it allocate more structs than it has bytes.
func (r *reader) code(out *Block, m *isdl.Machine) {
	limit := len(r.b)
	nInstrs, nOps, nMoves, nSrcs := r.count(limit), r.count(limit), r.count(limit), r.count(limit)
	pool := r.str()
	if r.err != nil {
		return
	}
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
			return
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
				return
			}
			if !code.Valid() || (code != ir.OpConst && !code.IsComputation()) {
				r.fail(fmt.Errorf("asm: invalid op %s on unit %s", code, u.Name))
				return
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
				return
			}
			mv.Bus = m.Buses[bus].Name
			mv.FromUnit, mv.FromReg, mv.FromMem = r.endpoint(m, pool)
			mv.ToUnit, mv.ToReg, mv.ToMem = r.endpoint(m, pool)
		}
	}
	if r.err == nil && len(ops)+len(moves)+len(srcs) != 0 {
		r.fail(fmt.Errorf("asm: block totals exceed its instructions by %d ops, %d moves, %d operands",
			len(ops), len(moves), len(srcs)))
	}
	br := &out.Branch
	if br.Kind = BranchKind(r.u8()); r.err == nil && br.Kind > BranchHalt {
		r.fail(fmt.Errorf("asm: bad branch kind %d", br.Kind))
	}
	if r.err != nil || br.Kind != BranchCond {
		return
	}
	if r.tag() {
		c := r.varint()
		br.CondConst = &c
	} else if u := r.unit(m); u != nil {
		br.CondUnit, br.CondReg = u.Regs.Name, r.reg(u)
	}
}
