package dataflow

import (
	"slices"

	"aviv/internal/ir"
)

// ExprFact is one available-expression fact: "memory location Var holds
// the value of Expr evaluated over the current memory state". Expr is an
// interned expression (see Exprs) containing at least one operation. A
// fact is generated by a block whose last store to Var stores exactly
// that expression computed from entry values, with no store to any
// variable the expression reads anywhere in the block (so the
// expression means the same thing at block exit as where it was
// computed); it is killed by any store to Var or to a variable the
// expression reads.
type ExprFact struct {
	Var  string
	Expr ExprID
}

// AvailResult holds the available-expressions solution: the facts that
// hold at each block boundary along *every* execution path from entry.
type AvailResult struct {
	G *CFG
	// X interns the expressions the facts name.
	X     *Exprs
	Facts []ExprFact // sorted fact universe
	// In and Out per block, bits indexed by Facts.
	In, Out []BitSet
}

// Available computes available expressions for f over the full CFG.
func Available(f *ir.Func) *AvailResult { return AvailableCFG(NewCFG(f)) }

// AvailableCFG computes available expressions over a prebuilt CFG.
func AvailableCFG(g *CFG) *AvailResult { return AvailableExprs(g, NewExprs()) }

// AvailableExprs is AvailableCFG interning expressions in x, which must
// not have seen a block of another function. Blocks x has already keyed
// are not keyed again.
func AvailableExprs(g *CFG, x *Exprs) *AvailResult {
	// Universe: every fact any block can generate.
	blockGens := make([][]ExprFact, len(g.F.Blocks))
	var facts []ExprFact
	for i, b := range g.F.Blocks {
		blockGens[i] = blockGenFacts(b, x.Block(i, b), x)
		facts = append(facts, blockGens[i]...)
	}
	slices.SortFunc(facts, compareFacts)
	facts = slices.Compact(facts)

	n := len(g.F.Blocks)
	p := Problem{
		Dir:  Forward,
		Meet: Intersect,
		Bits: len(facts),
		Gen:  make([]BitSet, n),
		Kill: make([]BitSet, n),
	}
	// killedBy[v] lists the facts a store to v kills: those holding v and
	// those whose expression reads v.
	killedBy := make(map[string][]int)
	for fi, fact := range facts {
		killedBy[fact.Var] = append(killedBy[fact.Var], fi)
		for _, v := range x.Vars(fact.Expr) {
			killedBy[v] = append(killedBy[v], fi)
		}
	}
	for i, b := range g.F.Blocks {
		gen := NewBitSet(len(facts))
		for _, fact := range blockGens[i] {
			j, _ := slices.BinarySearchFunc(facts, fact, compareFacts)
			gen.Set(j)
		}
		kill := NewBitSet(len(facts))
		for _, n := range b.Nodes {
			if n.Op == ir.OpStore {
				for _, fi := range killedBy[n.Var] {
					kill.Set(fi)
				}
			}
		}
		p.Gen[i] = gen
		p.Kill[i] = kill
	}
	// Nothing is available at function entry; p.Boundary stays nil (∅).
	solved := Solve(g, p)
	return &AvailResult{G: g, X: x, Facts: facts, In: solved.In, Out: solved.Out}
}

func compareFacts(a, b ExprFact) int {
	if a.Var != b.Var {
		if a.Var < b.Var {
			return -1
		}
		return 1
	}
	return int(a.Expr) - int(b.Expr)
}

// blockGenFacts returns the facts b generates; ids are b's expression
// IDs from x.
func blockGenFacts(b *ir.Block, ids []ExprID, x *Exprs) []ExprFact {
	stored := storedVars(b)
	var out []ExprFact
	// Walking backward, the first store seen to each variable is its
	// last store in the block.
	seen := make(map[string]bool, len(stored))
	for k := len(b.Nodes) - 1; k >= 0; k-- {
		n := b.Nodes[k]
		if n.Op != ir.OpStore || seen[n.Var] {
			continue
		}
		seen[n.Var] = true
		id := ids[n.Args[0].ID]
		if id == NoExpr || !x.IsComputation(id) {
			continue
		}
		// The expression must be over entry values: none of the
		// variables it reads may be stored anywhere in the block. (This
		// also excludes n.Var itself — it is stored.)
		if slices.ContainsFunc(x.Vars(id), func(v string) bool { return stored[v] }) {
			continue
		}
		out = append(out, ExprFact{Var: n.Var, Expr: id})
	}
	return out
}

// storedVars returns the set of variables b stores.
func storedVars(b *ir.Block) map[string]bool {
	s := make(map[string]bool)
	for _, n := range b.Nodes {
		if n.Op == ir.OpStore {
			s[n.Var] = true
		}
	}
	return s
}

// InFacts returns the facts holding at the entry of block i, sorted.
func (r *AvailResult) InFacts(i int) []ExprFact {
	var out []ExprFact
	for j, fact := range r.Facts {
		if r.In[i].Get(j) {
			out = append(out, fact)
		}
	}
	return out
}
