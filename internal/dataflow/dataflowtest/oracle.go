// Package dataflowtest holds brute-force reference implementations of
// the analyses in package dataflow and of the dead-store prune they
// license, for tests to check the iterative solver against. Each is
// deliberately structured as an explicit path or state search over the
// CFG rather than a gen/kill fixpoint, so the two derivations share no
// logic. They are far slower than the solver and meant for test-sized
// functions. Only _test.go files import this package.
package dataflowtest

import (
	"fmt"
	"sort"
	"strings"

	"aviv/internal/dataflow"
	"aviv/internal/ir"
)

// liveness is the path-search liveness oracle over one CFG. Whether a
// block reads a variable before writing it, or writes it at all,
// depends only on the block, so each block is summarized once and every
// query is a breadth-first search over the summaries with a visited
// set, which is exact.
type liveness struct {
	g *dataflow.CFG
	// vars is every variable the function loads or stores: all of them
	// are observable at function exit.
	vars map[string]bool
	uses []map[string]use // per block
}

// use summarizes one variable in one block: the block reads it before
// writing it (counting only loads that feed a store or the branch
// condition; dead loads observe nothing), and the block writes it.
type use struct{ reads, writes bool }

func newLiveness(g *dataflow.CFG) *liveness {
	l := &liveness{g: g, vars: make(map[string]bool), uses: make([]map[string]use, len(g.F.Blocks))}
	for i, b := range g.F.Blocks {
		for _, v := range b.Vars() {
			l.vars[v] = true
		}
		live := liveNodes(b)
		m := make(map[string]use)
		for _, n := range b.Nodes {
			switch n.Op {
			case ir.OpLoad:
				u := m[n.Var]
				if live[n] && !u.writes {
					u.reads = true
				}
				m[n.Var] = u
			case ir.OpStore:
				u := m[n.Var]
				u.writes = true
				m[n.Var] = u
			}
		}
		l.uses[i] = m
	}
	return l
}

// liveOut reports whether v is live at the exit of block i: some path
// from i's exit reads v before storing it, or reaches function exit
// (all memory is observable at exit) without storing it.
func (l *liveness) liveOut(i int, v string) bool {
	succs := l.g.Succs
	if len(succs[i]) == 0 {
		return l.vars[v] // exit boundary: everything is observable
	}
	visited := make([]bool, len(succs))
	queue := append([]int(nil), succs[i]...)
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if visited[c] {
			continue
		}
		visited[c] = true
		u := l.uses[c][v]
		if u.reads {
			return true
		}
		if u.writes {
			continue // the path's value of v is overwritten here
		}
		if len(succs[c]) == 0 {
			return true // reached exit with v unwritten
		}
		queue = append(queue, succs[c]...)
	}
	return false
}

// liveIn is liveOut shifted to the block entry.
func (l *liveness) liveIn(i int, v string) bool {
	u := l.uses[i][v]
	if u.reads {
		return true
	}
	if u.writes {
		return false
	}
	return l.liveOut(i, v)
}

// LiveOutSets returns, for every block of f, the variables live at its
// exit over the full CFG (dataflow.NewCFG), by path search.
func LiveOutSets(f *ir.Func) []map[string]bool {
	l := newLiveness(dataflow.NewCFG(f))
	out := make([]map[string]bool, len(f.Blocks))
	for i := range out {
		out[i] = make(map[string]bool)
		for v := range l.vars {
			if l.liveOut(i, v) {
				out[i][v] = true
			}
		}
	}
	return out
}

// liveNodes marks the nodes of b reachable from its roots by pointer,
// independently of the Node.ID-indexed ir.Block.LiveByID the analyses
// use. Analyses ignore dead loads, so a stray unreferenced load does
// not manufacture liveness; the oracles must agree.
func liveNodes(b *ir.Block) map[*ir.Node]bool {
	live := make(map[*ir.Node]bool, len(b.Nodes))
	var mark func(*ir.Node)
	mark = func(n *ir.Node) {
		if live[n] {
			return
		}
		live[n] = true
		for _, a := range n.Args {
			mark(a)
		}
	}
	for _, r := range b.Roots() {
		mark(r)
	}
	return live
}

// reachesIn reports whether definition d may reach the entry of block
// i: some path from the definition point to i's entry stores d.Var
// nowhere along the way. For the synthetic entry definition the path
// starts at function entry.
func reachesIn(g *dataflow.CFG, i int, d dataflow.Def) bool {
	// A store in an unreachable block never executes, so it reaches
	// nothing (execution-path semantics, matching the solver's rule that
	// edges out of unreachable blocks are never taken).
	if !d.Entry() && !g.Reach[d.BlockIdx] {
		return false
	}
	// A store that is not the last store of its variable in its block
	// never escapes the block, so it reaches no block entry.
	if !d.Entry() {
		b := g.F.Blocks[d.BlockIdx]
		for j := d.NodeIdx + 1; j < len(b.Nodes); j++ {
			if b.Nodes[j].Op == ir.OpStore && b.Nodes[j].Var == d.Var {
				return false
			}
		}
	}
	// start: blocks whose *entry* the definition has reached directly.
	var queue []int
	if d.Entry() {
		if i == 0 {
			return true
		}
		if blockStores(g.F.Blocks[0], d.Var) {
			return false // killed inside the entry block
		}
		queue = append(queue, g.Succs[0]...)
	} else {
		queue = append(queue, g.Succs[d.BlockIdx]...)
	}
	visited := make([]bool, len(g.F.Blocks))
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if visited[c] {
			continue
		}
		visited[c] = true
		if c == i {
			return true
		}
		if blockStores(g.F.Blocks[c], d.Var) {
			continue
		}
		queue = append(queue, g.Succs[c]...)
	}
	return false
}

func blockStores(b *ir.Block, v string) bool {
	for _, n := range b.Nodes {
		if n.Op == ir.OpStore && n.Var == v {
			return true
		}
	}
	return false
}

// Fact is an available-expression fact in string form: Expr is the
// fact's dataflow.ExprKey rather than an interned ID.
type Fact struct {
	Var  string
	Expr string
}

// FactOf converts fact into string form, re-deriving its key and
// variables with dataflow.ExprKey from the node x interned first under
// fact.Expr.
func FactOf(x *dataflow.Exprs, fact dataflow.ExprFact) (Fact, []string) {
	key, vars, _ := dataflow.ExprKey(x.Rep(fact.Expr))
	return Fact{Var: x.VarName(fact.Var), Expr: key}, vars
}

// GenFacts returns the facts block b generates, derived from ExprKey
// strings independently of the dataflow.Exprs interner: for each
// variable's last store, the stored expression when it contains an
// operation and reads no variable b stores.
func GenFacts(b *ir.Block) []Fact {
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
	var out []Fact
	for _, v := range vars {
		key, keyVars, ok := dataflow.ExprKey(last[v].Args[0])
		// Only a key with an operation is worth tracking: rewriting a
		// constant or a copy as a memory load never improves the code.
		if !ok || strings.HasPrefix(key, "@") || strings.HasPrefix(key, "#") {
			continue
		}
		clean := true
		for _, kv := range keyVars {
			if stored[kv] {
				clean = false
				break
			}
		}
		if clean {
			out = append(out, Fact{Var: v, Expr: key})
		}
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

// availIn reports whether fact holds at the entry of block i on every
// path from the entry: it searches for a witness path on which the fact
// does NOT hold, over the product graph of (block, holds). exprVars
// must list the variables fact.Expr reads.
func availIn(g *dataflow.CFG, i int, fact Fact, exprVars []string) bool {
	gens := func(b *ir.Block) bool {
		for _, f := range GenFacts(b) {
			if f == fact {
				return true
			}
		}
		return false
	}
	kills := func(b *ir.Block) bool {
		stored := storedVars(b)
		if stored[fact.Var] {
			return true
		}
		for _, v := range exprVars {
			if stored[v] {
				return true
			}
		}
		return false
	}
	type state struct {
		block int
		holds bool
	}
	// Nothing is available at function entry.
	if i == 0 {
		return false
	}
	start := state{block: 0, holds: false}
	visited := map[state]bool{start: true}
	queue := []state{start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		b := g.F.Blocks[s.block]
		after := s.holds
		if gens(b) {
			after = true
		} else if kills(b) {
			after = false
		}
		for _, c := range g.Succs[s.block] {
			ns := state{block: c, holds: after}
			if visited[ns] {
				continue
			}
			if c == i && !after {
				return false // witness: a path arriving without the fact
			}
			visited[ns] = true
			queue = append(queue, ns)
		}
	}
	return true // no witness path: the fact holds on all paths (or i is unreachable)
}

// dominates reports whether block b dominates block c: every path from
// the entry to c passes through b. Checked by deleting b from the graph
// and testing whether c is still reachable. Unreachable c is dominated
// by everything (vacuously).
func dominates(g *dataflow.CFG, b, c int) bool {
	if b == c || b == 0 {
		return true // everything reachable passes the entry; unreachable is vacuous
	}
	visited := make([]bool, len(g.F.Blocks))
	queue := []int{0}
	visited[0] = true
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == c {
			return false
		}
		for _, s := range g.Succs[x] {
			if s == b || visited[s] {
				continue
			}
			visited[s] = true
			queue = append(queue, s)
		}
	}
	return true
}

// CheckOracles runs all four analyses on f — over both the full and the
// constant-folded CFG — and cross-checks every fact against the
// corresponding brute-force oracle, returning an error describing the
// first disagreement.
func CheckOracles(f *ir.Func) error {
	for _, variant := range []struct {
		label string
		g     *dataflow.CFG
	}{
		{"full", dataflow.NewCFG(f)},
		{"folded", dataflow.NewCFGFolded(f)},
	} {
		g := variant.g
		live := dataflow.LivenessCFG(g)
		if !sort.StringsAreSorted(live.Vars) {
			return fmt.Errorf("%s: liveness variables %v are not sorted", variant.label, live.Vars)
		}
		oracle := newLiveness(g)
		for i := range f.Blocks {
			for _, v := range live.Vars {
				if got, want := live.LiveOutOf(i, v), oracle.liveOut(i, v); got != want {
					return fmt.Errorf("%s: liveOut(%s, %s) = %v, oracle says %v", variant.label, f.Blocks[i].Name, v, got, want)
				}
				if got, want := live.LiveInOf(i, v), oracle.liveIn(i, v); got != want {
					return fmt.Errorf("%s: liveIn(%s, %s) = %v, oracle says %v", variant.label, f.Blocks[i].Name, v, got, want)
				}
			}
		}
		reach := dataflow.ReachingCFG(g)
		for i := range f.Blocks {
			for j, d := range reach.Defs {
				if got, want := reach.In[i].Get(j), reachesIn(g, i, d); got != want {
					return fmt.Errorf("%s: reachIn(%s, %+v) = %v, oracle says %v", variant.label, f.Blocks[i].Name, d, got, want)
				}
			}
		}
		avail := dataflow.AvailableCFG(g)
		for i := range f.Blocks {
			for j, fact := range avail.Facts {
				of, vars := FactOf(avail.X, fact)
				if got, want := avail.In[i].Get(j), availIn(g, i, of, vars); got != want {
					return fmt.Errorf("%s: availIn(%s, %+v) = %v, oracle says %v", variant.label, f.Blocks[i].Name, of, got, want)
				}
			}
		}
		dom := dataflow.Dominators(g)
		for c := range f.Blocks {
			for b := range f.Blocks {
				if got, want := dom.Dominates(b, c), dominates(g, b, c); got != want {
					return fmt.Errorf("%s: dominates(%s, %s) = %v, oracle says %v", variant.label, f.Blocks[b].Name, f.Blocks[c].Name, got, want)
				}
			}
		}
	}
	return nil
}
