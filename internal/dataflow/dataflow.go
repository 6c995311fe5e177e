// Package dataflow is a classic iterative bit-vector dataflow framework
// in the Kildall tradition over the ir.Func control-flow graph: a
// generic worklist solver (forward/backward direction, union/intersect
// meet, gen/kill transfer functions, deterministic reverse-postorder
// iteration) plus four concrete analyses — liveness of memory slots,
// reaching definitions, available expressions, and dominators. Every
// fact set is an internal/bitset.Set.
//
// The paper's own lifetime analysis is explicitly pessimistic (the
// peephole pass exists to clean up after it, Sec. IV-G); this package
// computes the precise global facts for two clients: the
// machine-independent optimizer (global dead-store elimination and
// cross-block CSE in internal/opt, which leaves the back end no dead
// store to find) and the user-facing diagnostics pass
// (internal/dataflow/diag, avivcc -analyze). The covering's
// cover.Options.LiveOut prune is kept for callers that cover blocks
// directly; aviv.Compile does not use it.
//
// Cross-block values in this IR travel only through named memory
// locations — register values never outlive a block — so every fact
// universe is over memory variables (or expressions over their entry
// values), never registers. Within a block, ir.Block.Nodes order is
// execution order (ir.EvalBlock), which makes the per-block gen/kill
// summaries simple forward or backward scans.
//
// Liveness and available expressions run on a State: the CFG, a dense
// numbering of the function's variables (VarID) and expressions
// (ExprID, see Exprs), and one summary per block — memory accesses by
// VarID, use/def bit sets, generated facts as (VarID, ExprID) pairs —
// cached by *ir.Block at each block index. A whole-function optimizer
// keeps one State across its rounds, so each round re-summarizes only
// the blocks the previous one replaced; LivenessCFG and AvailableCFG
// are one-shot uses of a fresh State, whose variables are numbered in
// name order. A State lives as long as its
// caller holds it, and nothing is cached across functions.
//
// Every analysis has an independent brute-force oracle (oracle.go) used
// by the tests, in the same self-distrusting style as internal/verify.
package dataflow

import (
	"sort"

	"aviv/internal/ir"
)

// CFG is the control-flow graph of a function in index form: block
// indices into F.Blocks, predecessor/successor adjacency, and a
// deterministic reverse-postorder over the reachable blocks.
type CFG struct {
	F *ir.Func

	Succs [][]int
	Preds [][]int

	// RPO is a reverse postorder of the reachable blocks (entry first),
	// followed by the unreachable blocks in source order so every block
	// still gets a deterministic position.
	RPO []int
	// Reach marks blocks reachable from the entry along Succs edges.
	Reach []bool
}

// NewCFG builds the CFG of f. Every successor edge of every terminator
// is included (a branch contributes both arms, even on a constant
// condition) — the sound choice for facts that feed code generation.
func NewCFG(f *ir.Func) *CFG { return newCFG(f, false) }

// NewCFGFolded builds the CFG of f with constant branch conditions
// folded: a branch on a constant contributes only its taken arm. The
// diagnostics pass uses this sharper graph so defects guarded by
// never-taken branches (e.g. code after `while (1)`) are reported; code
// generation keeps the full graph of NewCFG.
func NewCFGFolded(f *ir.Func) *CFG { return newCFG(f, true) }

func newCFG(f *ir.Func, foldConst bool) *CFG {
	g := &CFG{
		F:     f,
		Succs: make([][]int, len(f.Blocks)),
		Preds: make([][]int, len(f.Blocks)),
		Reach: make([]bool, len(f.Blocks)),
	}
	index := make(map[string]int, len(f.Blocks)) // block name -> index in f.Blocks
	for i, b := range f.Blocks {
		index[b.Name] = i
	}
	for i, b := range f.Blocks {
		succs := b.Succs
		if foldConst && b.Term == ir.TermBranch && b.Cond != nil && b.Cond.Op == ir.OpConst {
			if b.Cond.Const != 0 {
				succs = b.Succs[:1]
			} else {
				succs = b.Succs[1:2]
			}
		}
		for _, name := range succs {
			j, ok := index[name]
			if !ok {
				continue // f.Verify rejects this; stay total anyway
			}
			g.Succs[i] = append(g.Succs[i], j)
			g.Preds[j] = append(g.Preds[j], i)
		}
	}
	if len(f.Blocks) > 0 {
		g.buildRPO()
	}
	return g
}

// buildRPO runs an iterative depth-first search from the entry,
// visiting successors in edge order, and records the reverse postorder.
func (g *CFG) buildRPO() {
	type frame struct {
		block int
		next  int // next successor edge to follow
	}
	var post []int
	stack := []frame{{block: 0}}
	g.Reach[0] = true
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(g.Succs[top.block]) {
			s := g.Succs[top.block][top.next]
			top.next++
			if !g.Reach[s] {
				g.Reach[s] = true
				stack = append(stack, frame{block: s})
			}
			continue
		}
		post = append(post, top.block)
		stack = stack[:len(stack)-1]
	}
	g.RPO = make([]int, 0, len(g.F.Blocks))
	for i := len(post) - 1; i >= 0; i-- {
		g.RPO = append(g.RPO, post[i])
	}
	for i := range g.F.Blocks {
		if !g.Reach[i] {
			g.RPO = append(g.RPO, i)
		}
	}
}

// Vars returns the sorted universe of memory locations the function
// reads or writes.
func (g *CFG) Vars() []string {
	seen := make(map[string]bool)
	var out []string
	for _, b := range g.F.Blocks {
		for _, n := range b.Nodes {
			if (n.Op == ir.OpLoad || n.Op == ir.OpStore) && !seen[n.Var] {
				seen[n.Var] = true
				out = append(out, n.Var)
			}
		}
	}
	sort.Strings(out)
	return out
}
