package dataflow

import (
	"fmt"
	"sort"
	"strings"

	"aviv/internal/ir"
)

// maxExprDepth bounds the recursion of ExprKey; deeper trees simply do
// not participate in available-expression facts.
const maxExprDepth = 12

// ExprKey canonicalizes the expression DAG rooted at n into a lexical
// key over the block's *entry* memory values: loads print as @var,
// constants as #value, operations by name with commutative operand
// order normalized. It also returns the sorted set of variables the
// expression reads. ok is false for stores, over-deep trees, and
// anything else that cannot be a value expression.
//
// Two nodes in different blocks with equal keys compute the same value
// whenever each block evaluates them over equal memory states — the
// foundation of the available-expressions analysis.
func ExprKey(n *ir.Node) (key string, vars []string, ok bool) {
	set := make(map[string]bool)
	key, ok = exprKey(n, set, 0)
	if !ok {
		return "", nil, false
	}
	for v := range set {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return key, vars, true
}

func exprKey(n *ir.Node, vars map[string]bool, depth int) (string, bool) {
	if depth > maxExprDepth {
		return "", false
	}
	switch n.Op {
	case ir.OpConst:
		return fmt.Sprintf("#%d", n.Const), true
	case ir.OpLoad:
		vars[n.Var] = true
		return "@" + n.Var, true
	case ir.OpStore:
		return "", false
	default:
		parts := make([]string, len(n.Args))
		for i, a := range n.Args {
			k, ok := exprKey(a, vars, depth+1)
			if !ok {
				return "", false
			}
			parts[i] = k
		}
		if n.Op.Commutative() && len(parts) == 2 && parts[1] < parts[0] {
			parts[0], parts[1] = parts[1], parts[0]
		}
		return n.Op.String() + "(" + strings.Join(parts, ",") + ")", true
	}
}
