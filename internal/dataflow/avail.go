package dataflow

import (
	"sort"

	"aviv/internal/ir"
)

// ExprFact is one available-expression fact: "memory location Var holds
// the value of Expr evaluated over the current memory state". Expr is a
// canonical ExprKey containing at least one operation. A fact is
// generated by a block whose last store to Var stores exactly that
// expression computed from entry values, with no store to any variable
// the expression reads anywhere in the block (so the expression means
// the same thing at block exit as where it was computed); it is killed
// by any store to Var or to a variable the expression reads.
type ExprFact struct {
	Var  string
	Expr string
}

// AvailResult holds the available-expressions solution: the facts that
// hold at each block boundary along *every* execution path from entry.
type AvailResult struct {
	G     *CFG
	Facts []ExprFact // sorted fact universe
	// In and Out per block, bits indexed by Facts.
	In, Out []BitSet

	factIndex map[ExprFact]int
	// ExprVars maps each fact's Expr to the variables it reads.
	ExprVars map[string][]string
}

// Available computes available expressions for f over the full CFG.
func Available(f *ir.Func) *AvailResult { return AvailableCFG(NewCFG(f)) }

// AvailableCFG computes available expressions over a prebuilt CFG.
func AvailableCFG(g *CFG) *AvailResult {
	// Universe: every fact any block can generate.
	factSet := make(map[ExprFact]bool)
	exprVars := make(map[string][]string)
	blockGens := make([][]ExprFact, len(g.F.Blocks))
	for i, b := range g.F.Blocks {
		for _, fact := range blockGenFacts(b, exprVars) {
			factSet[fact] = true
			blockGens[i] = append(blockGens[i], fact)
		}
	}
	facts := make([]ExprFact, 0, len(factSet))
	for fact := range factSet {
		facts = append(facts, fact)
	}
	sort.Slice(facts, func(a, b int) bool {
		if facts[a].Var != facts[b].Var {
			return facts[a].Var < facts[b].Var
		}
		return facts[a].Expr < facts[b].Expr
	})
	idx := make(map[ExprFact]int, len(facts))
	for i, fact := range facts {
		idx[fact] = i
	}

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
		for _, v := range exprVars[fact.Expr] {
			killedBy[v] = append(killedBy[v], fi)
		}
	}
	for i, b := range g.F.Blocks {
		gen := NewBitSet(len(facts))
		for _, fact := range blockGens[i] {
			gen.Set(idx[fact])
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
	return &AvailResult{
		G: g, Facts: facts, In: solved.In, Out: solved.Out,
		factIndex: idx, ExprVars: exprVars,
	}
}

// blockGenFacts returns the facts b generates, recording each
// expression's variable set in exprVars.
func blockGenFacts(b *ir.Block, exprVars map[string][]string) []ExprFact {
	stored := storedVars(b)
	last := make(map[string]*ir.Node)
	for _, n := range b.Nodes {
		if n.Op == ir.OpStore {
			last[n.Var] = n
		}
	}
	vars := make([]string, 0, len(last))
	for v := range last {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	var out []ExprFact
	for _, v := range vars {
		key, keyVars, ok := ExprKey(last[v].Args[0])
		if !ok || !isComputationKey(key) {
			continue
		}
		// The expression must be over entry values: none of the
		// variables it reads may be stored anywhere in the block. (This
		// also excludes v itself — v is stored.)
		clean := true
		for _, kv := range keyVars {
			if stored[kv] {
				clean = false
				break
			}
		}
		if !clean {
			continue
		}
		exprVars[key] = keyVars
		out = append(out, ExprFact{Var: v, Expr: key})
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

// AvailIn reports whether fact holds at the entry of block i.
func (r *AvailResult) AvailIn(i int, fact ExprFact) bool {
	j, ok := r.factIndex[fact]
	if !ok {
		return false
	}
	return r.In[i].Get(j)
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
