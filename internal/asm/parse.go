package asm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"aviv/internal/ir"
	"aviv/internal/isdl"
)

// ParseProgram assembles the textual format emitted by Program.String
// back into a Program — the front half of the "automatically generated
// assembler" of the paper's Fig. 1 (the back half is Encode).
//
//	; comments run to end of line
//	blockname:
//	  { U1: ADD R2, R0, #5 | DB: [a] -> U1.R0 | DB: U2.R1 -> [out] }
//	  { NOP }
//	  BNZ U1.R2, then else otherwise
//	  JMP target | HALT | FALL target
func ParseProgram(src string, m *isdl.Machine) (*Program, error) {
	p := &Program{Machine: m}
	var cur *Block
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		errf := func(format string, args ...any) error {
			return fmt.Errorf("asm: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasSuffix(line, ":"):
			name := strings.TrimSuffix(line, ":")
			if name == "" {
				return nil, errf("empty block name")
			}
			cur = &Block{Name: name}
			p.Blocks = append(p.Blocks, cur)
		case strings.HasPrefix(line, "{"):
			if cur == nil {
				return nil, errf("instruction before any block label")
			}
			in, err := parseInstr(line, m)
			if err != nil {
				return nil, errf("%v", err)
			}
			cur.Instrs = append(cur.Instrs, in)
		default:
			if cur == nil {
				return nil, errf("control transfer before any block label")
			}
			br, err := parseBranch(line, m)
			if err != nil {
				return nil, errf("%v", err)
			}
			cur.Branch = br
		}
	}
	if err := validateProgram(p); err != nil {
		return nil, err
	}
	return p, nil
}

func parseInstr(line string, m *isdl.Machine) (Instr, error) {
	var in Instr
	if !strings.HasSuffix(line, "}") {
		return in, fmt.Errorf("unterminated instruction %q", line)
	}
	body := strings.TrimSpace(line[1 : len(line)-1])
	if body == "" || body == "NOP" {
		return in, nil
	}
	for _, slot := range strings.Split(body, "|") {
		slot = strings.TrimSpace(slot)
		if slot == "" {
			continue
		}
		if strings.Contains(slot, "->") {
			mv, err := parseMoveSlot(slot, m)
			if err != nil {
				return in, err
			}
			in.Moves = append(in.Moves, mv)
		} else {
			op, err := parseOpSlot(slot, m)
			if err != nil {
				return in, err
			}
			in.Ops = append(in.Ops, op)
		}
	}
	return in, nil
}

// parseOpSlot parses "U1: ADD R2, R0, #5".
func parseOpSlot(slot string, m *isdl.Machine) (MicroOp, error) {
	var op MicroOp
	unit, rest, ok := strings.Cut(slot, ":")
	if !ok {
		return op, fmt.Errorf("op slot %q missing unit", slot)
	}
	op.Unit = strings.TrimSpace(unit)
	if m.Unit(op.Unit) == nil {
		return op, fmt.Errorf("unknown unit %q", op.Unit)
	}
	fields := strings.Fields(strings.ReplaceAll(rest, ",", " "))
	if len(fields) < 2 {
		return op, fmt.Errorf("op slot %q too short", slot)
	}
	name := fields[0]
	if name == "MOVI" {
		op.Op = ir.OpConst
	} else if op.Op = ir.ParseOp(name); !op.Op.IsComputation() {
		return op, fmt.Errorf("unknown operation %q", name)
	}
	dst, err := parseReg(fields[1])
	if err != nil {
		return op, fmt.Errorf("op slot %q: %w", slot, err)
	}
	op.Dst = dst
	for _, f := range fields[2:] {
		o, err := parseOperand(f)
		if err != nil {
			return op, fmt.Errorf("op slot %q: %w", slot, err)
		}
		op.Srcs = append(op.Srcs, o)
	}
	return op, nil
}

// parseMoveSlot parses "DB: U1.R0 -> [out]" / "DB: [a] -> U2.R1".
func parseMoveSlot(slot string, m *isdl.Machine) (Move, error) {
	var mv Move
	bus, rest, ok := strings.Cut(slot, ":")
	if !ok {
		return mv, fmt.Errorf("move slot %q missing bus", slot)
	}
	mv.Bus = strings.TrimSpace(bus)
	if m.Bus(mv.Bus) == nil {
		return mv, fmt.Errorf("unknown bus %q", mv.Bus)
	}
	from, to, ok := strings.Cut(rest, "->")
	if !ok {
		return mv, fmt.Errorf("move slot %q missing ->", slot)
	}
	fUnit, fReg, fMem, err := parseEndpoint(strings.TrimSpace(from), m)
	if err != nil {
		return mv, err
	}
	tUnit, tReg, tMem, err := parseEndpoint(strings.TrimSpace(to), m)
	if err != nil {
		return mv, err
	}
	mv.FromUnit, mv.FromReg, mv.FromMem = fUnit, fReg, fMem
	mv.ToUnit, mv.ToReg, mv.ToMem = tUnit, tReg, tMem
	return mv, nil
}

func parseEndpoint(s string, m *isdl.Machine) (unit string, reg int, mem string, err error) {
	if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
		mem = s[1 : len(s)-1]
		if mem == "" {
			return "", 0, "", fmt.Errorf("empty memory operand")
		}
		return "", 0, mem, nil
	}
	u, r, ok := strings.Cut(s, ".")
	if !ok {
		return "", 0, "", fmt.Errorf("bad endpoint %q", s)
	}
	if m.BankSize(u) == 0 {
		return "", 0, "", fmt.Errorf("unknown register bank %q", u)
	}
	reg, err = parseReg(r)
	if err != nil {
		return "", 0, "", err
	}
	return u, reg, "", nil
}

func parseReg(s string) (int, error) {
	if !strings.HasPrefix(s, "R") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return n, nil
}

func parseOperand(s string) (Operand, error) {
	if strings.HasPrefix(s, "#") {
		v, err := strconv.ParseInt(s[1:], 10, 64)
		if err != nil {
			return Operand{}, fmt.Errorf("bad immediate %q", s)
		}
		return Operand{IsImm: true, Imm: v}, nil
	}
	r, err := parseReg(s)
	if err != nil {
		return Operand{}, err
	}
	return Operand{Reg: r}, nil
}

func parseBranch(line string, m *isdl.Machine) (Branch, error) {
	fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
	if len(fields) == 0 {
		return Branch{}, fmt.Errorf("empty control transfer")
	}
	switch fields[0] {
	case "HALT":
		return Branch{Kind: BranchHalt}, nil
	case "JMP":
		if len(fields) != 2 {
			return Branch{}, fmt.Errorf("JMP needs a target")
		}
		return Branch{Kind: BranchJump, Target: fields[1]}, nil
	case "FALL":
		if len(fields) != 2 {
			return Branch{}, fmt.Errorf("FALL needs a target")
		}
		return Branch{Kind: BranchNone, Target: fields[1]}, nil
	case "BNZ":
		// BNZ U1.R2, target else otherwise   /  BNZ #1, target else otherwise
		if len(fields) != 5 || fields[3] != "else" {
			return Branch{}, fmt.Errorf("BNZ syntax: BNZ <cond>, <target> else <else>")
		}
		br := Branch{Kind: BranchCond, Target: fields[2], Else: fields[4]}
		if strings.HasPrefix(fields[1], "#") {
			v, err := strconv.ParseInt(fields[1][1:], 10, 64)
			if err != nil {
				return Branch{}, fmt.Errorf("bad BNZ constant %q", fields[1])
			}
			br.CondConst = &v
			return br, nil
		}
		unit, reg, _, err := parseEndpoint(fields[1], m)
		if err != nil || unit == "" {
			return Branch{}, fmt.Errorf("bad BNZ condition %q", fields[1])
		}
		br.CondUnit, br.CondReg = unit, reg
		return br, nil
	}
	return Branch{}, fmt.Errorf("unknown control transfer %q", line)
}

// validateProgram checks what ParseProgram cannot see line by line and
// Decode cannot see in the code layout: names the text can spell,
// operand counts, register ranges, moves that touch a register, and
// branch targets that the branch kind needs and the program defines.
func validateProgram(p *Program) error {
	names := make(map[string]bool, len(p.Blocks))
	for _, b := range p.Blocks {
		if !textName(b.Name) {
			return fmt.Errorf("asm: bad block name %q", b.Name)
		}
		if names[b.Name] {
			return fmt.Errorf("asm: duplicate block %q", b.Name)
		}
		names[b.Name] = true
	}
	checkReg := func(bank string, reg int) error {
		size := p.Machine.BankSize(bank)
		if size == 0 {
			return fmt.Errorf("asm: unknown register bank %q", bank)
		}
		if reg < 0 || reg >= size {
			return fmt.Errorf("asm: register %s.R%d out of range (file size %d)", bank, reg, size)
		}
		return nil
	}
	checkEnd := func(bank string, reg int, mem string) error {
		if bank != "" {
			return checkReg(bank, reg)
		}
		if !textName(mem) {
			return fmt.Errorf("asm: bad memory name %q", mem)
		}
		return nil
	}
	for _, b := range p.Blocks {
		for _, in := range b.Instrs {
			for _, op := range in.Ops {
				if p.Machine.Unit(op.Unit) == nil {
					return fmt.Errorf("asm: unknown unit %q", op.Unit)
				}
				if op.Op != ir.OpConst && len(op.Srcs) != op.Op.Arity() {
					return fmt.Errorf("asm: %s: %s takes %d operands", op, op.Op, op.Op.Arity())
				}
				bank := p.Machine.BankOf(op.Unit)
				if err := checkReg(bank, op.Dst); err != nil {
					return err
				}
				for _, s := range op.Srcs {
					if !s.IsImm {
						if err := checkReg(bank, s.Reg); err != nil {
							return err
						}
					}
				}
			}
			for _, mv := range in.Moves {
				if mv.FromUnit == "" && mv.ToUnit == "" {
					return fmt.Errorf("asm: %s is memory to memory", mv)
				}
				if err := checkEnd(mv.FromUnit, mv.FromReg, mv.FromMem); err != nil {
					return err
				}
				if err := checkEnd(mv.ToUnit, mv.ToReg, mv.ToMem); err != nil {
					return err
				}
			}
		}
		br := &b.Branch
		switch k := br.Kind; {
		case k > BranchHalt,
			(k == BranchJump || k == BranchCond) && br.Target == "",
			k == BranchHalt && br.Target != "",
			(k == BranchCond) != (br.Else != ""):
			return fmt.Errorf("asm: block %s: branch kind %d with target %q, else %q", b.Name, br.Kind, br.Target, br.Else)
		}
		for _, target := range []string{br.Target, br.Else} {
			if target != "" && !names[target] {
				return fmt.Errorf("asm: block %s transfers to unknown block %q", b.Name, target)
			}
		}
		if br.Kind == BranchCond && br.CondConst == nil {
			if err := checkReg(br.CondUnit, br.CondReg); err != nil {
				return err
			}
		}
	}
	return nil
}

// textName reports whether the text form can spell s as a block or
// memory name: valid UTF-8 of printable runes (source identifiers may be
// any Unicode letter) with no space, no separator and no "->".
func textName(s string) bool {
	return s != "" && utf8.ValidString(s) && !strings.Contains(s, "->") && !strings.ContainsFunc(s, func(c rune) bool {
		return !unicode.IsPrint(c) || unicode.IsSpace(c) || strings.ContainsRune(";,|", c)
	})
}
