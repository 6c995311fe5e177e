package lang

import (
	"fmt"

	"aviv/internal/ir"
)

// Lower translates a parsed program into the IR: basic-block expression
// DAGs connected by control flow, the exact input shape the AVIV back
// end starts from (paper Sec. II).
func Lower(p *Program, name string) (*ir.Func, error) {
	lw := &lowerer{fn: &ir.Func{Name: name}}
	lw.cur = lw.newBlock("entry")
	done, err := lw.stmts(p.Stmts)
	if err != nil {
		return nil, err
	}
	if !done {
		lw.cur.Return()
		lw.seal()
	}
	if err := lw.fn.Verify(); err != nil {
		return nil, fmt.Errorf("lang: lowering produced invalid IR: %w", err)
	}
	return lw.fn, nil
}

type lowerer struct {
	fn     *ir.Func
	cur    *ir.Builder
	nameID int
	// tempID numbers the memory temporaries that carry values across
	// the blocks a short-circuit operator splits.
	tempID int
	// loops tracks enclosing loop targets for break/continue.
	loops []loopCtx
	// free holds the builders of sealed blocks, for newBlock to reset
	// and reuse.
	free []*ir.Builder
}

type loopCtx struct {
	continueTo string // the condition head (while) or post block (for)
	breakTo    string // the loop exit
}

func (lw *lowerer) newBlock(name string) *ir.Builder {
	if name == "" {
		lw.nameID++
		name = fmt.Sprintf("b%d", lw.nameID)
	}
	if k := len(lw.free); k > 0 {
		bb := lw.free[k-1]
		lw.free = lw.free[:k-1]
		bb.Reset(name)
		return bb
	}
	return ir.NewBuilder(name)
}

// seal finalizes the current builder into the function and frees the
// builder for reuse.
func (lw *lowerer) seal() {
	lw.fn.Blocks = append(lw.fn.Blocks, lw.cur.Finish())
	lw.free = append(lw.free, lw.cur)
	lw.cur = nil
}

// stmts lowers a statement list; it reports whether control definitely
// left the current block (a return was lowered).
func (lw *lowerer) stmts(ss []Stmt) (done bool, err error) {
	for i, s := range ss {
		done, err := lw.stmt(s)
		if err != nil {
			return false, err
		}
		if done {
			if i != len(ss)-1 {
				return false, fmt.Errorf("lang: unreachable statements after return/break/continue")
			}
			return true, nil
		}
	}
	return false, nil
}

func (lw *lowerer) stmt(s Stmt) (done bool, err error) {
	switch s := s.(type) {
	case *Assign:
		x, err := lw.expr(s.X)
		if err != nil {
			return false, err
		}
		lw.cur.Store(s.Name, x)
		return false, nil

	case *Return:
		lw.cur.Return()
		lw.seal()
		return true, nil

	case *Break:
		if len(lw.loops) == 0 {
			return false, fmt.Errorf("lang: break outside a loop")
		}
		lw.cur.Jump(lw.loops[len(lw.loops)-1].breakTo)
		lw.seal()
		return true, nil

	case *Continue:
		if len(lw.loops) == 0 {
			return false, fmt.Errorf("lang: continue outside a loop")
		}
		lw.cur.Jump(lw.loops[len(lw.loops)-1].continueTo)
		lw.seal()
		return true, nil

	case *If:
		cond, err := lw.expr(s.Cond)
		if err != nil {
			return false, err
		}
		thenB := lw.newBlock("")
		joinB := lw.newBlock("")
		elseName := joinB.Block.Name
		var elseB *ir.Builder
		if s.Else != nil {
			elseB = lw.newBlock("")
			elseName = elseB.Block.Name
		}
		lw.cur.Branch(cond, thenB.Block.Name, elseName)
		lw.seal()

		lw.cur = thenB
		thenDone, err := lw.stmts(s.Then)
		if err != nil {
			return false, err
		}
		if !thenDone {
			lw.cur.Jump(joinB.Block.Name)
			lw.seal()
		}
		elseDone := false
		if elseB != nil {
			lw.cur = elseB
			elseDone, err = lw.stmts(s.Else)
			if err != nil {
				return false, err
			}
			if !elseDone {
				lw.cur.Jump(joinB.Block.Name)
				lw.seal()
			}
		}
		if thenDone && (s.Else != nil && elseDone) {
			// Both arms returned; the join block is unreachable but must
			// exist because nothing jumps to it — drop it.
			return true, nil
		}
		lw.cur = joinB
		return false, nil

	case *While:
		headB := lw.newBlock("")
		lw.cur.Jump(headB.Block.Name)
		lw.seal()

		bodyB := lw.newBlock("")
		exitB := lw.newBlock("")
		lw.cur = headB
		// The condition may split its block (shortCircuit); the loop
		// re-enters where its evaluation starts.
		head := headB.Block.Name
		cond, err := lw.expr(s.Cond)
		if err != nil {
			return false, err
		}
		lw.cur.Branch(cond, bodyB.Block.Name, exitB.Block.Name)
		lw.seal()

		lw.loops = append(lw.loops, loopCtx{continueTo: head, breakTo: exitB.Block.Name})
		lw.cur = bodyB
		bodyDone, err := lw.stmts(s.Body)
		lw.loops = lw.loops[:len(lw.loops)-1]
		if err != nil {
			return false, err
		}
		if !bodyDone {
			lw.cur.Jump(head)
			lw.seal()
		}
		lw.cur = exitB
		return false, nil

	case *For:
		// Explicit post block so continue re-runs the increment:
		//   init; head: br(cond, body, exit); body ...-> post; post -> head
		if _, err := lw.stmt(s.Init); err != nil {
			return false, err
		}
		headB := lw.newBlock("")
		lw.cur.Jump(headB.Block.Name)
		lw.seal()

		bodyB := lw.newBlock("")
		postB := lw.newBlock("")
		exitB := lw.newBlock("")
		lw.cur = headB
		head := headB.Block.Name // as in While
		cond, err := lw.expr(s.Cond)
		if err != nil {
			return false, err
		}
		lw.cur.Branch(cond, bodyB.Block.Name, exitB.Block.Name)
		lw.seal()

		lw.loops = append(lw.loops, loopCtx{continueTo: postB.Block.Name, breakTo: exitB.Block.Name})
		lw.cur = bodyB
		bodyDone, err := lw.stmts(s.Body)
		lw.loops = lw.loops[:len(lw.loops)-1]
		if err != nil {
			return false, err
		}
		if !bodyDone {
			lw.cur.Jump(postB.Block.Name)
			lw.seal()
		}
		lw.cur = postB
		if _, err := lw.stmt(s.Post); err != nil {
			return false, err
		}
		lw.cur.Jump(head)
		lw.seal()
		lw.cur = exitB
		return false, nil

	default:
		return false, fmt.Errorf("lang: unknown statement %T", s)
	}
}

var binOps = map[string]ir.Op{
	"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul, "/": ir.OpDiv, "%": ir.OpMod,
	"&": ir.OpAnd, "|": ir.OpOr, "^": ir.OpXor, "<<": ir.OpShl, ">>": ir.OpShr,
	"==": ir.OpCmpEQ, "!=": ir.OpCmpNE,
	"<": ir.OpCmpLT, "<=": ir.OpCmpLE, ">": ir.OpCmpGT, ">=": ir.OpCmpGE,
}

func (lw *lowerer) expr(x Expr) (*ir.Node, error) {
	switch x := x.(type) {
	case *Num:
		return lw.cur.Const(x.Value), nil
	case *Var:
		return lw.cur.Load(x.Name), nil
	case *Un:
		v, err := lw.expr(x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			return lw.cur.Op(ir.OpNeg, v), nil
		case "~":
			return lw.cur.Op(ir.OpCompl, v), nil
		case "!":
			return lw.cur.Op(ir.OpCmpEQ, v, lw.cur.Const(0)), nil
		}
		return nil, fmt.Errorf("lang: unknown unary op %q", x.Op)
	case *Bin:
		if (x.Op == "&&" || x.Op == "||") && mayTrap(x.R) {
			return lw.shortCircuit(x)
		}
		l, err := lw.expr(x.L)
		if err != nil {
			return nil, err
		}
		var t string
		if splits(x.R) {
			// x.R ends in another block, and values do not cross
			// blocks: l travels through a memory temporary.
			t = lw.temp()
			lw.cur.Store(t, l)
		}
		r, err := lw.expr(x.R)
		if err != nil {
			return nil, err
		}
		if t != "" {
			l = lw.cur.Load(t)
		}
		switch x.Op {
		case "&&":
			// An operand that cannot trap has no effect, so evaluating it
			// unconditionally keeps the block whole:
			// a && b == (a != 0) & (b != 0).
			ln := lw.cur.Op(ir.OpCmpNE, l, lw.cur.Const(0))
			rn := lw.cur.Op(ir.OpCmpNE, r, lw.cur.Const(0))
			return lw.cur.Op(ir.OpAnd, ln, rn), nil
		case "||":
			ln := lw.cur.Op(ir.OpCmpNE, l, lw.cur.Const(0))
			rn := lw.cur.Op(ir.OpCmpNE, r, lw.cur.Const(0))
			return lw.cur.Op(ir.OpOr, ln, rn), nil
		}
		op, ok := binOps[x.Op]
		if !ok {
			return nil, fmt.Errorf("lang: unknown operator %q", x.Op)
		}
		return lw.cur.Op(op, l, r), nil
	}
	return nil, fmt.Errorf("lang: unknown expression %T", x)
}

// mayTrap reports whether evaluating x can divide by zero: it holds a
// / or % whose divisor is not a nonzero literal.
func mayTrap(x Expr) bool {
	switch x := x.(type) {
	case *Un:
		return mayTrap(x.X)
	case *Bin:
		if x.Op == "/" || x.Op == "%" {
			if n, ok := x.R.(*Num); !ok || n.Value == 0 {
				return true
			}
		}
		return mayTrap(x.L) || mayTrap(x.R)
	}
	return false
}

// splits reports whether lowering x ends in another block than it
// starts in: x holds an && or || that shortCircuit lowers.
func splits(x Expr) bool {
	switch x := x.(type) {
	case *Un:
		return splits(x.X)
	case *Bin:
		return (x.Op == "&&" || x.Op == "||") && mayTrap(x.R) || splits(x.L) || splits(x.R)
	}
	return false
}

// temp returns the name of a fresh memory temporary. It holds a '.',
// which no identifier does.
func (lw *lowerer) temp() string {
	lw.tempID++
	return fmt.Sprintf("sc.%d", lw.tempID)
}

// shortCircuit lowers a && b or a || b, where b may trap, through a
// branch, so b runs only when a does not decide the result. Values do
// not cross blocks, so the result travels through a memory temporary t:
//
//	cur:  t = a != 0; branch t ? rhs : join   (||: branch t ? join : rhs)
//	rhs:  t = b != 0; jump join
//	join: ... load t ...
func (lw *lowerer) shortCircuit(x *Bin) (*ir.Node, error) {
	l, err := lw.expr(x.L)
	if err != nil {
		return nil, err
	}
	t := lw.temp()
	ln := lw.cur.Op(ir.OpCmpNE, l, lw.cur.Const(0))
	lw.cur.Store(t, ln)
	rhsB := lw.newBlock("")
	joinB := lw.newBlock("")
	if x.Op == "&&" {
		lw.cur.Branch(ln, rhsB.Block.Name, joinB.Block.Name)
	} else {
		lw.cur.Branch(ln, joinB.Block.Name, rhsB.Block.Name)
	}
	lw.seal()
	lw.cur = rhsB
	r, err := lw.expr(x.R)
	if err != nil {
		return nil, err
	}
	lw.cur.Store(t, lw.cur.Op(ir.OpCmpNE, r, lw.cur.Const(0)))
	lw.cur.Jump(joinB.Block.Name)
	lw.seal()
	lw.cur = joinB
	return lw.cur.Load(t), nil
}
