// This file documents the covering algorithm in depth; the package
// declaration comment in options.go is the short version.
//
// # The concurrent code-generation problem
//
// Classic compilers run instruction selection, register allocation, and
// scheduling as separate phases. On VLIW/ASIP targets the phases are
// tightly coupled: which unit executes an operation decides which
// register bank holds its result, which data transfers are needed, which
// operations can share an instruction word, and ultimately how many
// instructions the block needs. The AVIV paper's answer is to search the
// joint space, pruned by heuristics at each level. This package is that
// search.
//
// # Pipeline for one basic block
//
//  1. exploreAssignments (assign.go, Sec. IV-A): depth-first search over
//     split-node functional-unit assignments, visiting split nodes by
//     increasing level from the DAG top. At each node every alternative
//     gets an incremental cost: required data transfers to already-placed
//     users, loads from data memory, parallelism foregone by co-locating
//     independent operations, and (optionally) register-file crowding.
//     With PruneIncremental only minimal-cost alternatives are expanded
//     (ties expand both, exactly as the paper's Fig. 6 walks through).
//     Complete assignments are ranked by accumulated cost and the best
//     BeamWidth survive.
//
//  2. buildGraph (graph.go, Sec. IV-B): for one assignment, materialize
//     the solution graph — operation nodes bound to units plus every
//     data-transfer node the assignment implies: loads from data memory,
//     cross-bank moves (multi-hop when no direct path exists; among
//     alternative paths the least-congested buses win), and stores.
//     Memory-ordering edges serialize accesses to the same variable, and
//     the branch condition's register is pinned live to the block end.
//
//  3. buildCliques (clique.go, Sec. IV-C): the pairwise-parallelism
//     matrix marks node pairs with no dependence path and compatible
//     resources; GenMaxCliques enumerates all maximal cliques with the
//     paper's Fig. 8 recursion (greedy absorption of candidates that
//     preclude nothing, i < index duplicate pruning). The level-window
//     heuristic (IV-C.2) keeps only merges of nodes at similar schedule
//     depth; splitIllegal (IV-C.3) breaks cliques that violate ISDL
//     constraints or bus widths.
//
//  4. scheduler.run (greedy.go, Sec. IV-D): repeatedly select the clique
//     covering the most ready nodes whose register requirements fit, ties
//     broken by a resource-lower-bound lookahead. Register pressure is
//     tracked per bank by counting live values (a value dies when its
//     last consumer issues; reads precede writes within an instruction,
//     so a register freed by a read is reusable by a same-cycle write).
//     Three policies not spelled out by the paper make this converge:
//     value-carrying transfers are gated on usefulness (a consumer must
//     be nearly ready) so values are not parked early; after a spill the
//     freed bank is reserved for the blocked node (goal reservation); and
//     spill victims are chosen Belady-style (farthest next use) with the
//     paper's fewest-reloads criterion as tie-break.
//
//  5. spill (spill.go, Fig. 9): when pressure blocks every ready node, a
//     live value is stored to a fresh spill slot. Ready consumers keep
//     reading the register (the store happens early; eviction waits for
//     their reads); distant consumers are rewired to per-bank reload
//     nodes, and move chains made redundant disappear. Maximal cliques
//     are regenerated over the surviving nodes.
//
//  6. Portfolio (cover.go): each assignment is also covered by a plain
//     ready-list scheduler (list.go) — maximal cliques occasionally favor
//     instruction width over dependence depth on long accumulation
//     chains — and the smaller result wins. With the level-window
//     heuristic disabled (heuristics-off mode) the windowed covering runs
//     too, keeping the exhaustive candidate set a superset of the
//     heuristic one. Each schedule runs on its own clone of the one
//     solution graph built for the assignment (buildGraph ignores the
//     level window), since the clique covering spills into its graph.
//     CoverDAG builds that graph once per assignment, in exploration
//     order, and skips the covering when the graph's admissible lower
//     bound (bound.go) already exceeds the best cost found.
//
//  7. serialFallback (serial.go): if every assignment fails (register
//     files smaller than any legal schedule's needs), emit strictly
//     serial memory-resident code — one node per instruction, operands
//     reloaded at each use — which the per-alternative operand-count
//     filter guarantees is schedulable.
//
// The result is a Solution: an ordered list of VLIW instructions, each a
// set of operation and transfer nodes, with per-bank pressure certified
// ≤ the register-file sizes, so the detailed register allocation of
// package regalloc (graph coloring, Sec. IV-F) cannot fail.
package cover
