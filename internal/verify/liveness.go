package verify

import (
	"fmt"
	"sort"
	"strings"

	"aviv/internal/ir"
)

// This file is the independent reference for the global liveness
// analysis (package dataflow) and the dead-store elimination it
// licenses, in the package's usual self-distrusting style: liveness is
// re-derived here by a different method — a demand-driven path search
// per (block, variable) query instead of an iterative bit-vector
// fixpoint — and the two derivations must agree exactly. A pruned block
// is likewise re-checked structurally: it must keep exactly the stores
// the independent scan keeps, with identical value expressions and an
// identical terminator. The optimizer's tests hold opt.Optimize to both
// checks over their corpus, which is what lets aviv.Compile compile
// every store it is given.

// LiveOutSets independently derives the live-out variable set of every
// block: v is live at the exit of block i when some path from i's exit
// reads v before overwriting it, or reaches a function exit without
// overwriting it (final data memory is the observable output of a
// compiled program, so every variable is live at exit). One
// breadth-first search runs per (block, variable) pair; whether a block
// reads-before-write or overwrites v depends only on the block itself,
// so a visited set per query is exact.
func LiveOutSets(f *ir.Func) []map[string]bool {
	n := len(f.Blocks)
	index := make(map[string]int, n)
	for i, b := range f.Blocks {
		index[b.Name] = i
	}
	succs := make([][]int, n)
	for i, b := range f.Blocks {
		for _, s := range b.Succs {
			if j, ok := index[s]; ok {
				succs[i] = append(succs[i], j)
			}
		}
	}
	// The variable universe: every name loaded or stored anywhere.
	varSet := make(map[string]bool)
	for _, b := range f.Blocks {
		for _, v := range b.Vars() {
			varSet[v] = true
		}
	}
	vars := make([]string, 0, len(varSet))
	for v := range varSet {
		vars = append(vars, v)
	}
	sort.Strings(vars)

	// Per-block, per-variable summaries: does the block read v before
	// writing it (counting only loads that feed a store or the branch
	// condition — dead loads observe nothing), and does it write v at all?
	type summary struct{ reads, writes bool }
	sums := make([]map[string]summary, n)
	for i, b := range f.Blocks {
		live := reachableFromRoots(b)
		m := make(map[string]summary)
		for _, nd := range b.Nodes {
			switch nd.Op {
			case ir.OpLoad:
				s := m[nd.Var]
				if live[nd] && !s.writes {
					s.reads = true
				}
				m[nd.Var] = s
			case ir.OpStore:
				s := m[nd.Var]
				s.writes = true
				m[nd.Var] = s
			}
		}
		sums[i] = m
	}

	liveOutQuery := func(i int, v string) bool {
		if len(succs[i]) == 0 {
			return true // exit boundary: all of memory is observable
		}
		visited := make([]bool, n)
		queue := append([]int(nil), succs[i]...)
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			if visited[c] {
				continue
			}
			visited[c] = true
			s := sums[c][v]
			if s.reads {
				return true
			}
			if s.writes {
				continue
			}
			if len(succs[c]) == 0 {
				return true
			}
			queue = append(queue, succs[c]...)
		}
		return false
	}

	out := make([]map[string]bool, n)
	for i := range f.Blocks {
		m := make(map[string]bool)
		for _, v := range vars {
			if liveOutQuery(i, v) {
				m[v] = true
			}
		}
		out[i] = m
	}
	return out
}

// reachableFromRoots marks the nodes of b that feed a store or the
// branch condition; everything else is dead code whose loads read
// nothing.
func reachableFromRoots(b *ir.Block) map[*ir.Node]bool {
	live := make(map[*ir.Node]bool, len(b.Nodes))
	var mark func(n *ir.Node)
	mark = func(n *ir.Node) {
		if n == nil || live[n] {
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

// CheckLiveness compares the claimed per-block live-out sets (as
// computed by the iterative dataflow solver) against this package's
// independent path-search derivation. Any disagreement in either
// direction is a violation: a variable claimed dead but actually live
// licenses an unsound store prune; a variable claimed live but actually
// dead is a lost optimization that signals the two derivations no
// longer model the same semantics.
func CheckLiveness(f *ir.Func, claimed []map[string]bool) []Violation {
	s := &sink{}
	if len(claimed) != len(f.Blocks) {
		s.add("ir/liveness", Coord{Instr: -1},
			"claimed live-out sets cover %d blocks, function has %d", len(claimed), len(f.Blocks))
		return s.vs
	}
	independent := LiveOutSets(f)
	for i, b := range f.Blocks {
		var missing, extra []string
		for v := range independent[i] {
			if !claimed[i][v] {
				missing = append(missing, v)
			}
		}
		for v, ok := range claimed[i] {
			if ok && !independent[i][v] {
				extra = append(extra, v)
			}
		}
		sort.Strings(missing)
		sort.Strings(extra)
		for _, v := range missing {
			s.add("ir/liveness", Coord{Block: b.Name, Instr: -1},
				"%s is live at block exit but the solver claims it dead", v)
		}
		for _, v := range extra {
			s.add("ir/liveness", Coord{Block: b.Name, Instr: -1},
				"%s is dead at block exit but the solver claims it live", v)
		}
	}
	return s.vs
}

// CheckPrune validates that pruned is exactly orig with its dead stores
// (under liveOut) removed: same terminator and successors, same branch
// condition expression, and a store sequence equal to orig's with
// precisely the stores this package's own backward scan proves dead
// deleted — matching by variable name and by the stored value's
// expression tree.
func CheckPrune(orig, pruned *ir.Block, liveOut map[string]bool) []Violation {
	s := &sink{}
	c := Coord{Block: orig.Name, Instr: -1}
	if pruned.Term != orig.Term {
		s.add("ir/prune", c, "terminator changed from %v to %v", orig.Term, pruned.Term)
	}
	if strings.Join(pruned.Succs, ",") != strings.Join(orig.Succs, ",") {
		s.add("ir/prune", c, "successors changed from %v to %v", orig.Succs, pruned.Succs)
	}
	if (orig.Cond == nil) != (pruned.Cond == nil) {
		s.add("ir/prune", c, "branch condition appeared or disappeared")
	} else if orig.Cond != nil && exprString(orig.Cond) != exprString(pruned.Cond) {
		s.add("ir/prune", c, "branch condition changed from %s to %s",
			exprString(orig.Cond), exprString(pruned.Cond))
	}
	want := surviveStores(orig, liveOut)
	var got []string
	for _, n := range pruned.Nodes {
		if n.Op == ir.OpStore {
			got = append(got, n.Var+"<-"+exprString(n.Args[0]))
		}
	}
	if strings.Join(want, "; ") != strings.Join(got, "; ") {
		s.add("ir/prune", c, "store sequence mismatch:\n  independent: %s\n  pruned:      %s",
			strings.Join(want, "; "), strings.Join(got, "; "))
	}
	return s.vs
}

// surviveStores returns, in execution order, var<-expr keys for the
// stores of b that survive dead-store pruning under liveOut, computed by
// a backward scan independent of dataflow.DeadStores: a store is dead
// when its variable is overwritten later in the block before any
// (live) load, or is not in liveOut and never read again. The scan
// iterates because deleting a store can orphan a load that was the only
// reader keeping an earlier store alive.
func surviveStores(b *ir.Block, liveOut map[string]bool) []string {
	type ev struct {
		idx   int
		store bool
		v     string
	}
	// Events in execution order over an explicit kept-set, so rounds can
	// drop stores and re-evaluate load reachability.
	kept := make(map[int]bool)
	for i, n := range b.Nodes {
		if n.Op == ir.OpStore {
			kept[i] = true
		}
	}
	for {
		// A load is observing when it (transitively) feeds a kept store
		// or the branch condition.
		obs := make(map[*ir.Node]bool)
		var mark func(n *ir.Node)
		mark = func(n *ir.Node) {
			if n == nil || obs[n] {
				return
			}
			obs[n] = true
			for _, a := range n.Args {
				mark(a)
			}
		}
		for i, n := range b.Nodes {
			if n.Op == ir.OpStore && kept[i] {
				mark(n)
			}
		}
		if b.Cond != nil {
			mark(b.Cond)
		}
		var events []ev
		for i, n := range b.Nodes {
			switch {
			case n.Op == ir.OpStore && kept[i]:
				events = append(events, ev{idx: i, store: true, v: n.Var})
			case n.Op == ir.OpLoad && obs[n]:
				events = append(events, ev{idx: i, store: false, v: n.Var})
			}
		}
		live := make(map[string]bool, len(liveOut))
		for v, ok := range liveOut {
			if ok {
				live[v] = true
			}
		}
		changed := false
		for i := len(events) - 1; i >= 0; i-- {
			e := events[i]
			if e.store {
				if !live[e.v] {
					kept[e.idx] = false
					changed = true
				} else {
					live[e.v] = false
				}
			} else {
				live[e.v] = true
			}
		}
		if !changed {
			break
		}
	}
	var out []string
	for i, n := range b.Nodes {
		if n.Op == ir.OpStore && kept[i] {
			out = append(out, n.Var+"<-"+exprString(n.Args[0]))
		}
	}
	return out
}

// exprString renders a value node as a canonical expression tree over
// loads and constants, for structural comparison across block clones.
func exprString(n *ir.Node) string {
	switch n.Op {
	case ir.OpConst:
		return fmt.Sprintf("#%d", n.Const)
	case ir.OpLoad:
		return "@" + n.Var
	default:
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			parts[i] = exprString(a)
		}
		return n.Op.String() + "(" + strings.Join(parts, ",") + ")"
	}
}
