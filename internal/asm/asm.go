// Package asm defines the assembly-level program representation the AVIV
// back end emits: VLIW instructions with one operation slot per
// functional unit and one move slot per bus transfer, plus the
// control-flow instructions generated per basic block (Sec. III-C). It
// provides text emission (the assembly the paper's Fig. 1 flow feeds to
// the automatically generated assembler) and a binary encoding for the
// instruction-level simulator.
package asm

import (
	"fmt"
	"reflect"
	"strconv"

	"aviv/internal/cover"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/regalloc"
)

// Operand is a micro-operation source: an immediate or a register of the
// executing unit's bank.
type Operand struct {
	IsImm bool
	Imm   int64
	Reg   int
}

func (o Operand) String() string { return string(o.appendTo(nil)) }

func (o Operand) appendTo(dst []byte) []byte {
	if o.IsImm {
		return strconv.AppendInt(append(dst, '#'), o.Imm, 10)
	}
	return strconv.AppendInt(append(dst, 'R'), int64(o.Reg), 10)
}

// MicroOp is one occupied operation slot: Op executed on Unit, writing
// Dst in the unit's own bank. ir.OpConst denotes an immediate
// materialization (MOVI).
type MicroOp struct {
	Unit string
	Op   ir.Op
	Dst  int
	Srcs []Operand
}

func (m MicroOp) String() string { return string(m.appendTo(nil)) }

// appendTo renders "Unit: OP Rdst, src, src"; with no sources the text
// keeps its trailing ", ".
func (m MicroOp) appendTo(dst []byte) []byte {
	dst = append(append(dst, m.Unit...), ": "...)
	if m.Op == ir.OpConst {
		dst = append(dst, "MOVI"...)
	} else {
		dst = append(dst, m.Op.String()...)
	}
	dst = strconv.AppendInt(append(dst, " R"...), int64(m.Dst), 10)
	dst = append(dst, ", "...)
	for i, s := range m.Srcs {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = s.appendTo(dst)
	}
	return dst
}

// Move is one occupied bus slot: a register-to-register, memory-to-
// register (load), or register-to-memory (store) transfer.
type Move struct {
	Bus      string
	FromUnit string // "" when the source is memory
	FromReg  int
	FromMem  string // memory location name when loading
	ToUnit   string // "" when the destination is memory
	ToReg    int
	ToMem    string // memory location name when storing
}

func (m Move) String() string { return string(m.appendTo(nil)) }

func (m Move) appendTo(dst []byte) []byte {
	dst = append(append(dst, m.Bus...), ": "...)
	dst = appendLoc(dst, m.FromUnit, m.FromReg, m.FromMem)
	dst = append(dst, " -> "...)
	return appendLoc(dst, m.ToUnit, m.ToReg, m.ToMem)
}

// appendLoc renders a transfer endpoint: "Unit.Rn", or "[mem]" when unit
// is empty.
func appendLoc(dst []byte, unit string, reg int, mem string) []byte {
	if unit == "" {
		return append(append(append(dst, '['), mem...), ']')
	}
	dst = append(append(dst, unit...), ".R"...)
	return strconv.AppendInt(dst, int64(reg), 10)
}

// Instr is one VLIW instruction word.
type Instr struct {
	Ops   []MicroOp
	Moves []Move
}

func (in Instr) String() string { return string(in.appendTo(nil)) }

func (in Instr) appendTo(dst []byte) []byte {
	if len(in.Ops)+len(in.Moves) == 0 {
		return append(dst, "{ NOP }"...)
	}
	sep := "{ "
	for _, op := range in.Ops {
		dst = op.appendTo(append(dst, sep...))
		sep = " | "
	}
	for _, mv := range in.Moves {
		dst = mv.appendTo(append(dst, sep...))
		sep = " | "
	}
	return append(dst, " }"...)
}

// BranchKind distinguishes the control-flow instructions appended to a
// block (generated by conventional means, Sec. III-C).
type BranchKind uint8

// Control-flow instruction kinds.
const (
	BranchNone BranchKind = iota // fall through to the next block
	BranchJump                   // unconditional jump
	BranchCond                   // branch to Target if cond != 0, else Else
	BranchHalt                   // end of program (function return)
)

// Branch is the control-flow instruction ending a block.
type Branch struct {
	Kind     BranchKind
	Target   string
	Else     string
	CondUnit string
	CondReg  int
	// CondConst carries a statically known condition (branch on
	// constant), used when the front end did not fold it away.
	CondConst *int64
}

func (b *Branch) String() string { return string(b.appendTo(nil)) }

// appendTo renders the control-flow instruction; a bare "FALL" (no
// target) is the implicit end of the program.
func (b *Branch) appendTo(dst []byte) []byte {
	switch b.Kind {
	case BranchJump:
		return append(append(dst, "JMP "...), b.Target...)
	case BranchCond:
		dst = append(dst, "BNZ "...)
		if b.CondConst != nil {
			dst = strconv.AppendInt(append(dst, '#'), *b.CondConst, 10)
		} else {
			dst = appendLoc(dst, b.CondUnit, b.CondReg, "")
		}
		dst = append(append(dst, ", "...), b.Target...)
		return append(append(dst, " else "...), b.Else...)
	case BranchHalt:
		return append(dst, "HALT"...)
	}
	if b.Target != "" {
		return append(append(dst, "FALL "...), b.Target...)
	}
	return append(dst, "FALL"...)
}

// Block is the generated code for one basic block.
type Block struct {
	Name   string
	Instrs []Instr
	Branch Branch
}

// Program is a complete compiled function.
type Program struct {
	Machine *isdl.Machine
	Blocks  []*Block
}

// Block returns the named block, or nil.
func (p *Program) Block(name string) *Block {
	for _, b := range p.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// CodeSize returns the total instruction count including control-flow
// instructions (HALT/FALL excluded, jumps and conditional branches
// counted).
func (p *Program) CodeSize() int {
	total := 0
	for _, b := range p.Blocks {
		total += len(b.Instrs)
		switch b.Branch.Kind {
		case BranchJump, BranchCond:
			total++
		}
	}
	return total
}

func (p *Program) String() string {
	buf := append([]byte("; program for "), p.Machine.Name...)
	buf = append(buf, '\n')
	for _, b := range p.Blocks {
		buf = append(append(buf, b.Name...), ":\n"...)
		for _, in := range b.Instrs {
			buf = append(in.appendTo(append(buf, "  "...)), '\n')
		}
		line := len(buf)
		buf = b.Branch.appendTo(append(buf, "  "...))
		if string(buf[line+2:]) == "FALL" { // bare FALL (end of program) is implicit
			buf = buf[:line]
		} else {
			buf = append(buf, '\n')
		}
	}
	return string(buf)
}

// EmitBlock lowers one covering solution plus its register allocation to
// assembly-level code. The block terminator is translated separately via
// SetBranch.
func EmitBlock(sol *cover.Solution, alloc *regalloc.Allocation) (*Block, error) {
	out := &Block{Name: sol.Block.Name}
	for _, group := range sol.Instrs {
		var in Instr
		for _, n := range group {
			switch n.Kind {
			case cover.OpNode:
				mo, err := emitOp(sol, alloc, n)
				if err != nil {
					return nil, err
				}
				in.Ops = append(in.Ops, mo)
			default:
				mv, err := emitMove(alloc, n)
				if err != nil {
					return nil, err
				}
				in.Moves = append(in.Moves, mv)
			}
		}
		out.Instrs = append(out.Instrs, in)
	}
	if err := setBranch(out, sol, alloc); err != nil {
		return nil, err
	}
	padForCondLatency(out, sol)
	return out, nil
}

// padForCondLatency appends NOPs when the branch would otherwise read the
// condition register before its producing operation completes (the
// machine has no interlocks, so the block must drain the latency).
func padForCondLatency(out *Block, sol *cover.Solution) {
	if out.Branch.Kind != BranchCond || out.Branch.CondConst != nil {
		return
	}
	holder := sol.CondHolder()
	if holder == nil {
		return
	}
	lat := 1
	if holder.Kind == cover.OpNode && holder.Op.IsComputation() {
		if u := sol.Machine.Unit(holder.Unit); u != nil {
			lat = u.LatencyOf(holder.Op)
		}
	}
	pos := -1
	for i, group := range sol.Instrs {
		for _, n := range group {
			if n == holder {
				pos = i
			}
		}
	}
	if pos < 0 {
		return
	}
	// The branch reads at cycle len(Instrs); the value is ready at
	// pos+lat.
	for len(out.Instrs) < pos+lat {
		out.Instrs = append(out.Instrs, Instr{})
	}
}

func emitOp(sol *cover.Solution, alloc *regalloc.Allocation, n *cover.SNode) (MicroOp, error) {
	mo := MicroOp{Unit: n.Unit, Op: n.Op}
	dst, ok := alloc.Reg[n]
	if !ok {
		return mo, fmt.Errorf("asm: op %s has no destination register", n)
	}
	mo.Dst = dst
	if n.Op == ir.OpConst {
		// Synthetic immediate materialization.
		mo.Srcs = []Operand{{IsImm: true, Imm: n.Value.Const}}
		return mo, nil
	}
	if n.Alt == nil {
		return mo, fmt.Errorf("asm: op %s has no alternative", n)
	}
	want := isdl.UnitLoc(n.Bank)
	for _, operand := range n.Alt.Operands {
		if operand.Op == ir.OpConst {
			mo.Srcs = append(mo.Srcs, Operand{IsImm: true, Imm: operand.Const})
			continue
		}
		// Find the predecessor delivering this operand's value into the
		// executing unit's bank.
		var src *cover.SNode
		for _, p := range n.Preds {
			if p.Value == operand {
				if loc, defOK := p.DefLoc(); defOK && loc == want {
					src = p
					break
				}
			}
		}
		if src == nil {
			return mo, fmt.Errorf("asm: op %s: operand n%d not delivered to bank %s", n, operand.ID, n.Bank)
		}
		r, rOK := alloc.Reg[src]
		if !rOK {
			return mo, fmt.Errorf("asm: operand producer %s has no register", src)
		}
		mo.Srcs = append(mo.Srcs, Operand{Reg: r})
	}
	return mo, nil
}

func emitMove(alloc *regalloc.Allocation, n *cover.SNode) (Move, error) {
	mv := Move{Bus: n.Step.Bus}
	switch n.Kind {
	case cover.LoadNode:
		mv.FromMem = n.Var
		mv.ToUnit = n.Step.To.Name
		r, ok := alloc.Reg[n]
		if !ok {
			return mv, fmt.Errorf("asm: load %s has no register", n)
		}
		mv.ToReg = r
	case cover.StoreNode:
		mv.ToMem = n.Var
		mv.FromUnit = n.Step.From.Name
		src, err := movePredReg(alloc, n)
		if err != nil {
			return mv, err
		}
		mv.FromReg = src
	case cover.MoveNode:
		mv.FromUnit = n.Step.From.Name
		mv.ToUnit = n.Step.To.Name
		src, err := movePredReg(alloc, n)
		if err != nil {
			return mv, err
		}
		mv.FromReg = src
		r, ok := alloc.Reg[n]
		if !ok {
			return mv, fmt.Errorf("asm: move %s has no register", n)
		}
		mv.ToReg = r
	}
	return mv, nil
}

func movePredReg(alloc *regalloc.Allocation, n *cover.SNode) (int, error) {
	if len(n.Preds) != 1 {
		return 0, fmt.Errorf("asm: transfer %s has %d value preds, want 1", n, len(n.Preds))
	}
	r, ok := alloc.Reg[n.Preds[0]]
	if !ok {
		return 0, fmt.Errorf("asm: transfer source %s has no register", n.Preds[0])
	}
	return r, nil
}

func setBranch(out *Block, sol *cover.Solution, alloc *regalloc.Allocation) error {
	blk := sol.Block
	out.Branch = terminator(blk)
	if out.Branch.Kind != BranchCond {
		return nil
	}
	if blk.Cond.Op == ir.OpConst {
		c := blk.Cond.Const
		out.Branch.CondConst = &c
		return nil
	}
	holder := sol.CondHolder()
	if holder == nil {
		return fmt.Errorf("asm: block %s branches but no condition holder", blk.Name)
	}
	loc, _ := holder.DefLoc()
	r, ok := alloc.Reg[holder]
	if !ok {
		return fmt.Errorf("asm: condition holder %s has no register", holder)
	}
	out.Branch.CondUnit = loc.Name
	out.Branch.CondReg = r
	return nil
}

// terminator returns the control-flow instruction ending blk before
// layout: its kind and targets, without a condition.
func terminator(blk *ir.Block) Branch {
	switch blk.Term {
	case ir.TermReturn:
		return Branch{Kind: BranchHalt}
	case ir.TermJump:
		return Branch{Kind: BranchJump, Target: blk.Succs[0]}
	case ir.TermNone:
		if len(blk.Succs) == 1 {
			return Branch{Kind: BranchNone, Target: blk.Succs[0]}
		}
		return Branch{Kind: BranchHalt}
	case ir.TermBranch:
		return Branch{Kind: BranchCond, Target: blk.Succs[0], Else: blk.Succs[1]}
	}
	return Branch{}
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
