// Package ir defines the machine-independent intermediate representation
// consumed by the AVIV back end: expression DAGs grouped into basic blocks
// that are connected by explicit control flow.
//
// This is the moral equivalent of the SUIF/SPAM output the paper starts
// from: "a number of basic block DAGs connected through control flow
// information" (Sec. II). Leaves of a DAG are constants and loads of named
// memory locations; roots are stores and branch conditions.
package ir

import "fmt"

// Op identifies a basic operation in the intermediate representation.
// These are the "SUIF basic operations such as ADD and SUB" of the paper.
type Op uint8

// Basic operations. Arithmetic and logic ops take register operands;
// Load/Store move values between data memory and registers; Const
// materializes an immediate.
const (
	OpInvalid Op = iota

	// Leaves.
	OpConst // integer constant
	OpLoad  // load named memory location

	// Unary.
	OpNeg   // arithmetic negation
	OpCompl // bitwise complement (the paper's COMPL)

	// Binary arithmetic.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod

	// Binary logic.
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	// Comparisons (produce 0/1).
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE

	// Root.
	OpStore // store arg0 to named memory location

	// Complex operations recognized by pattern matching (Sec. III-B).
	// They only appear after complex-instruction matching against a
	// machine description that supports them.
	OpMAC  // multiply-accumulate: arg0 + arg1*arg2
	OpAddS // add-shift: (arg0 + arg1) >> arg2

	numOps
)

var opNames = [numOps]string{
	OpInvalid: "INVALID",
	OpConst:   "CONST",
	OpLoad:    "LOAD",
	OpNeg:     "NEG",
	OpCompl:   "COMPL",
	OpAdd:     "ADD",
	OpSub:     "SUB",
	OpMul:     "MUL",
	OpDiv:     "DIV",
	OpMod:     "MOD",
	OpAnd:     "AND",
	OpOr:      "OR",
	OpXor:     "XOR",
	OpShl:     "SHL",
	OpShr:     "SHR",
	OpCmpEQ:   "CMPEQ",
	OpCmpNE:   "CMPNE",
	OpCmpLT:   "CMPLT",
	OpCmpLE:   "CMPLE",
	OpCmpGT:   "CMPGT",
	OpCmpGE:   "CMPGE",
	OpStore:   "STORE",
	OpMAC:     "MAC",
	OpAddS:    "ADDS",
}

var opArity = [numOps]int{
	OpConst: 0,
	OpLoad:  0,
	OpNeg:   1,
	OpCompl: 1,
	OpAdd:   2,
	OpSub:   2,
	OpMul:   2,
	OpDiv:   2,
	OpMod:   2,
	OpAnd:   2,
	OpOr:    2,
	OpXor:   2,
	OpShl:   2,
	OpShr:   2,
	OpCmpEQ: 2,
	OpCmpNE: 2,
	OpCmpLT: 2,
	OpCmpLE: 2,
	OpCmpGT: 2,
	OpCmpGE: 2,
	OpStore: 1,
	OpMAC:   3,
	OpAddS:  3,
}

func (op Op) String() string {
	if op >= numOps {
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
	return opNames[op]
}

// Valid reports whether op is a defined operation code (excluding
// OpInvalid). Out-of-range values decoded from corrupted objects or
// hand-built IR fail this check.
func (op Op) Valid() bool { return op > OpInvalid && op < numOps }

// Arity returns the number of value operands op takes.
func (op Op) Arity() int {
	if op >= numOps {
		return 0
	}
	return opArity[op]
}

// Commutative reports whether swapping the two operands of op preserves
// its value. Used by hash-consing and complex-pattern matching.
func (op Op) Commutative() bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpCmpEQ, OpCmpNE:
		return true
	}
	return false
}

// IsLeaf reports whether op has no value operands.
func (op Op) IsLeaf() bool { return op == OpConst || op == OpLoad }

// IsComputation reports whether op must be executed on a functional unit
// (i.e. it is neither a constant, a load root, nor a store root).
func (op Op) IsComputation() bool {
	switch op {
	case OpConst, OpLoad, OpStore, OpInvalid:
		return false
	}
	return true
}

// ParseOp converts a textual op name (as used in ISDL descriptions) to an
// Op. It returns OpInvalid if the name is unknown.
func ParseOp(name string) Op {
	for op, n := range opNames {
		if n == name && Op(op) != OpInvalid {
			return Op(op)
		}
	}
	return OpInvalid
}
