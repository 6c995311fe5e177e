package dataflowtest

import (
	"errors"
	"fmt"
	"strings"

	"aviv/internal/ir"
)

// CheckPrune validates that pruned is exactly orig with its dead stores
// (under liveOut) removed: same terminator and successors, same branch
// condition expression, and a store sequence equal to orig's with
// precisely the stores this package's own backward scan proves dead
// deleted — matching by variable name and by the stored value's
// expression tree. It returns every mismatch, joined, or nil.
func CheckPrune(orig, pruned *ir.Block, liveOut map[string]bool) error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("block %s: "+format, append([]any{orig.Name}, args...)...))
	}
	if pruned.Term != orig.Term {
		bad("terminator changed from %v to %v", orig.Term, pruned.Term)
	}
	if strings.Join(pruned.Succs, ",") != strings.Join(orig.Succs, ",") {
		bad("successors changed from %v to %v", orig.Succs, pruned.Succs)
	}
	if (orig.Cond == nil) != (pruned.Cond == nil) {
		bad("branch condition appeared or disappeared")
	} else if orig.Cond != nil && exprString(orig.Cond) != exprString(pruned.Cond) {
		bad("branch condition changed from %s to %s", exprString(orig.Cond), exprString(pruned.Cond))
	}
	want := surviveStores(orig, liveOut)
	var got []string
	for _, n := range pruned.Nodes {
		if n.Op == ir.OpStore {
			got = append(got, n.Var+"<-"+exprString(n.Args[0]))
		}
	}
	if strings.Join(want, "; ") != strings.Join(got, "; ") {
		bad("store sequence mismatch:\n  independent: %s\n  pruned:      %s",
			strings.Join(want, "; "), strings.Join(got, "; "))
	}
	return errors.Join(errs...)
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
