// Package cover implements the concurrent code-generation step of the
// AVIV paper (Sec. IV): covering a Split-Node DAG with a minimal-cost set
// of target-processor instructions. One call performs functional unit
// assignment, data-transfer insertion, operation grouping into VLIW
// instructions (maximal cliques of pairwise-parallel nodes), register
// bank allocation with load/spill insertion, and scheduling — all
// concurrently, as the paper argues sequential phase ordering cannot.
package cover

// Options tune the heuristics of the covering algorithm. The zero value
// is not useful; start from DefaultOptions or ExhaustiveOptions. The
// transfer-path choice of Sec. IV-B is not an option: pickPath always
// takes the least-loaded minimal-hop path.
type Options struct {
	// BeamWidth is how many of the lowest-cost complete functional-unit
	// assignments are explored in detail (the paper's "select several
	// lowest cost assignments", Sec. IV-A).
	BeamWidth int

	// PruneIncremental enables pruning the assignment search by
	// incremental cost: at each split node only the alternatives with
	// minimal incremental cost are expanded (Fig. 6). With it disabled
	// every alternative is expanded — the paper's "heuristics off" mode.
	PruneIncremental bool

	// MaxAssignments caps the number of complete assignments enumerated,
	// a safety valve for exhaustive runs on large blocks. <=0 means no
	// cap.
	MaxAssignments int

	// LevelWindow enables the clique-reduction heuristic of Sec. IV-C.2:
	// two nodes may merge into one instruction only if their levels from
	// the top and from the bottom of the solution graph differ by at
	// most LevelWindow. <0 disables the heuristic.
	LevelWindow int

	// CliqueBudget caps how many maximal groupings one enumeration may
	// produce. On machines where one wide bus carries most transfers
	// (hub topologies), the pairwise parallelism matrix cannot express
	// the bus-capacity limit and the number of maximal cliques explodes
	// combinatorially; the budget cuts the enumeration off
	// deterministically, and a repair pass then guarantees every node
	// still appears in at least one grouping so covering cannot
	// dead-end. The cap is above what ordinary blocks generate, so it
	// only engages on pathological matrices — and on those, cost grows
	// far faster than linearly with the budget (each later clique needs
	// deeper preclusion-pruned recursion to reach), so the cap must stay
	// small to be effective. <=0 means unlimited.
	CliqueBudget int

	// Lookahead enables the tie-breaking lookahead cost of Sec. IV-D
	// when several cliques cover equally many ready nodes.
	Lookahead bool

	// VarPlacement assigns program variables to named data memories
	// (X/Y memory banking, the classic dual-MAC DSP layout). Variables
	// not listed live in the machine's first data memory. Loads from
	// different memories can ride different buses within one
	// instruction, which is the entire point.
	VarPlacement map[string]string

	// LiveOut, when non-nil, is the set of memory variables live at the
	// block's exit as computed by global dataflow analysis
	// (dataflow.Liveness). Stores whose variable is provably dead across
	// blocks are pruned before the Split-Node DAG is built, so values no
	// successor ever reads stop occupying register-bank slots and
	// generating spill traffic. nil means every variable is assumed live
	// at the block exit — the pessimistic (always safe) default.
	// aviv.Compile ignores it and covers every store it is given: dead
	// stores are removed in the front end, by opt.Optimize.
	LiveOut map[string]bool

	// Trace, when non-nil, collects a step-by-step record of the
	// covering run (used by the figure-reproduction harness).
	Trace *Trace
}

// DefaultOptions returns the heuristics-on configuration used for the
// paper's main results columns.
func DefaultOptions() Options {
	return Options{
		BeamWidth:        16,
		PruneIncremental: true,
		MaxAssignments:   200_000,
		LevelWindow:      3,
		CliqueBudget:     256,
		Lookahead:        true,
	}
}

// ExhaustiveOptions returns the heuristics-off configuration of the
// paper's parenthesised columns: all assignments are enumerated and
// explored in detail and the clique-reduction heuristic is disabled.
// Note (as the paper does) that this still is not an exact algorithm —
// not all schedules are explored.
func ExhaustiveOptions() Options {
	return Options{
		BeamWidth:        1 << 30,
		PruneIncremental: false,
		MaxAssignments:   200_000,
		LevelWindow:      -1,
		Lookahead:        true,
	}
}
