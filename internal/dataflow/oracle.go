package dataflow

import (
	"fmt"
	"sort"

	"aviv/internal/ir"
)

// This file holds brute-force oracles for each analysis, deliberately
// structured as explicit path/state searches over the CFG rather than
// gen/kill fixpoints, so tests can cross-check the iterative solver
// against an independent derivation (the self-distrusting style of
// internal/verify). They are exponentially dumber and only meant for
// test-sized functions.

// OracleLiveOut reports whether v is live at the exit of block i: some
// path from i's exit reads v before storing it, or reaches function
// exit (all memory is observable at exit) without storing it. Pure
// breadth-first reachability: whether a block reads-before-write,
// writes, or is transparent for v depends only on the block itself, so
// a visited set per query is exact.
func OracleLiveOut(g *CFG, i int, v string) bool {
	if len(g.Succs[i]) == 0 {
		return varInFunc(g, v) // exit boundary: everything is observable
	}
	visited := make([]bool, len(g.F.Blocks))
	queue := append([]int(nil), g.Succs[i]...)
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if visited[c] {
			continue
		}
		visited[c] = true
		reads, writes := blockReadsBeforeWrite(g.F.Blocks[c], v)
		if reads {
			return true
		}
		if writes {
			continue // the path's value of v is overwritten here
		}
		if len(g.Succs[c]) == 0 {
			return true // reached exit with v unwritten
		}
		queue = append(queue, g.Succs[c]...)
	}
	return false
}

// OracleLiveIn is OracleLiveOut shifted to the block entry.
func OracleLiveIn(g *CFG, i int, v string) bool {
	reads, writes := blockReadsBeforeWrite(g.F.Blocks[i], v)
	if reads {
		return true
	}
	if writes {
		return false
	}
	return OracleLiveOut(g, i, v)
}

// blockReadsBeforeWrite scans b in execution order and reports whether
// it reads v before any store to v, and whether it stores v at all.
func blockReadsBeforeWrite(b *ir.Block, v string) (reads, writes bool) {
	live := oracleLiveNodes(b)
	for _, n := range b.Nodes {
		if n.Op == ir.OpLoad && n.Var == v && live[n] && !writes {
			return true, writes
		}
		if n.Op == ir.OpStore && n.Var == v {
			writes = true
		}
	}
	return false, writes
}

func varInFunc(g *CFG, v string) bool {
	for _, b := range g.F.Blocks {
		for _, u := range b.Vars() {
			if u == v {
				return true
			}
		}
	}
	return false
}

// oracleLiveNodes marks the nodes of b reachable from its roots by
// pointer, independently of the Node.ID-indexed ir.Block.LiveByID the
// analyses use. Analyses ignore dead loads, so a stray unreferenced
// load does not manufacture liveness; the oracles must agree.
func oracleLiveNodes(b *ir.Block) map[*ir.Node]bool {
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

// OracleReachesIn reports whether definition d may reach the entry of
// block i: some path from the definition point to i's entry stores
// d.Var nowhere along the way. For the synthetic entry definition the
// path starts at function entry.
func OracleReachesIn(g *CFG, i int, d Def) bool {
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
			return false // killed inside the entry block... unless i==0, handled
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

// OracleFact is an available-expression fact in the oracles' string
// form: Expr is the fact's ExprKey rather than an interned ID.
type OracleFact struct {
	Var  string
	Expr string
}

// OracleFactOf converts fact into the oracles' string form, re-deriving
// its key and variables with ExprKey from the node x interned first
// under fact.Expr.
func OracleFactOf(x *Exprs, fact ExprFact) (OracleFact, []string) {
	key, vars, _ := ExprKey(x.info[fact.Expr].rep)
	return OracleFact{Var: fact.Var, Expr: key}, vars
}

// OracleGenFacts returns the facts block b generates, derived from
// ExprKey strings independently of the Exprs interner: for each
// variable's last store, the stored expression when it contains an
// operation and reads no variable b stores.
func OracleGenFacts(b *ir.Block) []OracleFact {
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
	var out []OracleFact
	for _, v := range vars {
		key, keyVars, ok := ExprKey(last[v].Args[0])
		if !ok || !isComputationKey(key) {
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
			out = append(out, OracleFact{Var: v, Expr: key})
		}
	}
	return out
}

// OracleAvailIn reports whether fact holds at the entry of block i on
// every path from the entry: it searches for a witness path on which
// the fact does NOT hold, over the product graph of (block, holds).
// exprVars must list the variables fact.Expr reads.
func OracleAvailIn(g *CFG, i int, fact OracleFact, exprVars []string) bool {
	gens := func(b *ir.Block) bool {
		for _, f := range OracleGenFacts(b) {
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
	start := state{block: 0, holds: false}
	if start.block == i && !start.holds {
		return false
	}
	visited := make(map[state]bool)
	queue := []state{start}
	visited[start] = true
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

// OracleDominates reports whether block b dominates block c: every path
// from the entry to c passes through b. Checked by deleting b from the
// graph and testing whether c is still reachable. Unreachable c is
// dominated by everything (vacuously).
func OracleDominates(g *CFG, b, c int) bool {
	if b == c {
		return true
	}
	if 0 == b {
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
// first disagreement. This is the corpus-level self-distrust hook: the
// differential test harness calls it on every generated program, so the
// iterative solver and the path-search oracles must agree everywhere,
// not just on hand-picked shapes.
func CheckOracles(f *ir.Func) error {
	for _, variant := range []struct {
		label string
		g     *CFG
	}{
		{"full", NewCFG(f)},
		{"folded", NewCFGFolded(f)},
	} {
		g := variant.g
		live := LivenessCFG(g)
		for i := range f.Blocks {
			for _, v := range live.Vars {
				if got, want := live.LiveOutOf(i, v), OracleLiveOut(g, i, v); got != want {
					return fmt.Errorf("%s: liveOut(%s, %s) = %v, oracle says %v", variant.label, f.Blocks[i].Name, v, got, want)
				}
				if got, want := live.LiveInOf(i, v), OracleLiveIn(g, i, v); got != want {
					return fmt.Errorf("%s: liveIn(%s, %s) = %v, oracle says %v", variant.label, f.Blocks[i].Name, v, got, want)
				}
			}
		}
		reach := ReachingCFG(g)
		for i := range f.Blocks {
			for j, d := range reach.Defs {
				if got, want := reach.In[i].Get(j), OracleReachesIn(g, i, d); got != want {
					return fmt.Errorf("%s: reachIn(%s, %+v) = %v, oracle says %v", variant.label, f.Blocks[i].Name, d, got, want)
				}
			}
		}
		avail := AvailableCFG(g)
		for i := range f.Blocks {
			for j, fact := range avail.Facts {
				of, vars := OracleFactOf(avail.X, fact)
				if got, want := avail.In[i].Get(j), OracleAvailIn(g, i, of, vars); got != want {
					return fmt.Errorf("%s: availIn(%s, %+v) = %v, oracle says %v", variant.label, f.Blocks[i].Name, of, got, want)
				}
			}
		}
		dom := Dominators(g)
		for c := range f.Blocks {
			for b := range f.Blocks {
				if got, want := dom.Dominates(b, c), OracleDominates(g, b, c); got != want {
					return fmt.Errorf("%s: dominates(%s, %s) = %v, oracle says %v", variant.label, f.Blocks[b].Name, f.Blocks[c].Name, got, want)
				}
			}
		}
	}
	return nil
}
