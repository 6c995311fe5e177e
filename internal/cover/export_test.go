package cover

import "aviv/internal/sndag"

// AssignmentCover is one assignment's admissible lower bound and the
// cost of its covering.
type AssignmentCover struct {
	Bound, Cost int
	// Covered is false when the covering failed; Cost is then 0.
	Covered bool
}

// CoverEveryAssignment is CoverDAG without pruning: it covers every
// assignment whose solution graph builds, in exploration order, and
// returns each one's bound and covering cost with the cheapest covering
// (the serial fallback when none covers).
func CoverEveryAssignment(d *sndag.DAG, opts Options) ([]AssignmentCover, *Solution, error) {
	assigns := exploreAssignments(d, opts)
	var covers []AssignmentCover
	var best *Solution
	for _, a := range assigns {
		g, err := buildGraph(d, a, opts)
		if err != nil {
			continue
		}
		c := AssignmentCover{Bound: assignmentLowerBound(g)}
		if sol, err := coverAssignment(d, a, g, opts); err == nil {
			c.Cost, c.Covered = sol.Cost(), true
			best = betterSolution(best, sol)
		}
		covers = append(covers, c)
	}
	if best == nil && len(assigns) > 0 {
		sol, err := serialFallback(d, assigns[0], opts)
		if err != nil {
			return covers, nil, err
		}
		best = sol
	}
	return covers, best, nil
}
