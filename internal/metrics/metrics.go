// Package metrics collects per-block and per-phase counters and timings
// for a compilation run: covering effort (assignments explored), peephole
// savings, wall time per back-end phase, and worker utilization of the
// parallel block-compilation pipeline. The numbers feed the -stats output
// of cmd/avivcc and cmd/avivbench and the scaling studies.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// BlockMetrics records the compilation effort spent on one basic block.
type BlockMetrics struct {
	// Block is the basic-block name.
	Block string
	// Worker is the index of the pipeline worker that compiled the
	// block (0 for the serial path).
	Worker int

	// DAGNodes is the Split-Node DAG size (the paper's "#Nodes" metric).
	DAGNodes int
	// Instructions is the covered block body size (code-size objective).
	Instructions int
	// Spills counts values spilled to memory by the covering.
	Spills int
	// AssignmentsExplored counts complete functional-unit assignments
	// covered in detail (Sec. IV-A beam).
	AssignmentsExplored int
	// PeepholeSaved counts instructions removed by the peephole pass.
	PeepholeSaved int
	// PrunedAssignments counts assignments the covering skipped by
	// branch-and-bound (admissible lower bound above the incumbent).
	PrunedAssignments int
	// CacheHit reports the block was reused from the per-block cache
	// (either tier) instead of being covered fresh.
	CacheHit bool
	// DiskHit reports the block was rebuilt from the persistent tier's
	// finished schedule (implies CacheHit): the peephole did not run, so
	// Peephole is zero and PeepholeSaved is the persisted count. A
	// CacheHit without DiskHit came from the memory tier.
	DiskHit bool
	// DiskMiss reports the block was looked up in the persistent tier
	// and not found there (or found undecodable), so it was covered
	// fresh.
	DiskMiss bool
	// Invalidated reports a persistent entry for the block read back but
	// failed to decode, and was deleted.
	Invalidated bool
	// Violations counts translation-validation diagnostics flagged on the
	// block (always 0 on a successful compile with verification on).
	Violations int

	// Per-phase wall time.
	Cover    time.Duration // Split-Node DAG build + concurrent covering
	Peephole time.Duration // post-allocation cleanup pass
	Regalloc time.Duration // detailed register allocation
	Emit     time.Duration // assembly emission
	Verify   time.Duration // static translation validation
	// Total is the whole per-block pipeline, including overhead not
	// attributed to a named phase.
	Total time.Duration
}

// Effort returns the block name and effort counters of b — what a
// reused block carries over from the compile that produced it — without
// timings, cache flags, worker or verification results.
func (b BlockMetrics) Effort() BlockMetrics {
	return BlockMetrics{
		Block:               b.Block,
		DAGNodes:            b.DAGNodes,
		Instructions:        b.Instructions,
		Spills:              b.Spills,
		AssignmentsExplored: b.AssignmentsExplored,
		PeepholeSaved:       b.PeepholeSaved,
		PrunedAssignments:   b.PrunedAssignments,
	}
}

// AnalysisMetrics records wall time and output counts of the global
// dataflow analyses (package dataflow), as the diagnostics pass
// (internal/dataflow/diag, avivcc -analyze) fills them in.
type AnalysisMetrics struct {
	Liveness       time.Duration
	ReachingDefs   time.Duration
	AvailableExprs time.Duration
	Dominators     time.Duration
	// Diagnostics counts program diagnostics produced by the diag pass.
	Diagnostics int
}

// String formats the metrics as the analyze: line of the -stats
// reports.
func (a AnalysisMetrics) String() string {
	return fmt.Sprintf("analyze: liveness %v, reachdefs %v, avail %v, dom %v, %d diagnostics",
		a.Liveness.Round(time.Microsecond), a.ReachingDefs.Round(time.Microsecond),
		a.AvailableExprs.Round(time.Microsecond), a.Dominators.Round(time.Microsecond),
		a.Diagnostics)
}

// CompileMetrics aggregates a whole-function compilation.
type CompileMetrics struct {
	// Blocks holds per-block metrics in original (source) block order,
	// regardless of the order workers finished in.
	Blocks []BlockMetrics
	// Parallelism is the worker-pool size used (1 = serial path).
	Parallelism int
	// Wall is the end-to-end Compile wall time.
	Wall time.Duration
	// WorkerBusy is the per-worker busy time, indexed by worker.
	WorkerBusy []time.Duration
}

// TotalAssignments sums assignments explored across blocks.
func (m *CompileMetrics) TotalAssignments() int {
	n := 0
	for _, b := range m.Blocks {
		n += b.AssignmentsExplored
	}
	return n
}

// TotalPeepholeSaved sums instructions removed by the peephole pass.
func (m *CompileMetrics) TotalPeepholeSaved() int {
	n := 0
	for _, b := range m.Blocks {
		n += b.PeepholeSaved
	}
	return n
}

// TotalPrunedAssignments sums branch-and-bound-pruned assignments.
func (m *CompileMetrics) TotalPrunedAssignments() int {
	n := 0
	for _, b := range m.Blocks {
		n += b.PrunedAssignments
	}
	return n
}

// CacheHits counts blocks reused from the per-block cache (either tier).
func (m *CompileMetrics) CacheHits() int {
	n := 0
	for _, b := range m.Blocks {
		if b.CacheHit {
			n++
		}
	}
	return n
}

// DiskHits counts blocks rebuilt from the persistent cache tier.
func (m *CompileMetrics) DiskHits() int {
	n := 0
	for _, b := range m.Blocks {
		if b.DiskHit {
			n++
		}
	}
	return n
}

// Reuse returns the per-tier block counts of this compile. Entries and
// Evictions are properties of the memory tier, not of a compile, and
// stay 0.
func (m *CompileMetrics) Reuse() CacheStats {
	var s CacheStats
	for _, b := range m.Blocks {
		switch {
		case b.DiskHit:
			s.MemMisses++
			s.DiskHits++
		case b.CacheHit:
			s.MemHits++
		default:
			s.MemMisses++
			s.Recompiled++
		}
		if b.DiskMiss {
			s.DiskMisses++
		}
		if b.Invalidated {
			s.Invalidations++
		}
	}
	s.Stitched = s.MemHits + s.DiskHits
	return s
}

// TotalSpills sums spills across blocks.
func (m *CompileMetrics) TotalSpills() int {
	n := 0
	for _, b := range m.Blocks {
		n += b.Spills
	}
	return n
}

// PhaseTotals sums the per-phase block times across the function.
func (m *CompileMetrics) PhaseTotals() (cover, peephole, regalloc, emit, verify time.Duration) {
	for _, b := range m.Blocks {
		cover += b.Cover
		peephole += b.Peephole
		regalloc += b.Regalloc
		emit += b.Emit
		verify += b.Verify
	}
	return
}

// TotalViolations sums translation-validation diagnostics across blocks.
func (m *CompileMetrics) TotalViolations() int {
	n := 0
	for _, b := range m.Blocks {
		n += b.Violations
	}
	return n
}

// BusyTotal sums worker busy time — the CPU time the pipeline spent
// compiling blocks.
func (m *CompileMetrics) BusyTotal() time.Duration {
	var t time.Duration
	for _, d := range m.WorkerBusy {
		t += d
	}
	return t
}

// Utilization is the fraction of the pool's wall-clock capacity spent
// busy: BusyTotal / (Parallelism * Wall). 1.0 means every worker was
// compiling for the whole run; low values mean the pool was starved
// (few blocks, or one straggler block dominating).
func (m *CompileMetrics) Utilization() float64 {
	if m.Parallelism <= 0 || m.Wall <= 0 {
		return 0
	}
	return float64(m.BusyTotal()) / (float64(m.Parallelism) * float64(m.Wall))
}

// String formats the metrics as the multi-line report printed by the
// -stats flags.
func (m *CompileMetrics) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "compile: %d blocks, parallelism %d, wall %v, utilization %.0f%%\n",
		len(m.Blocks), m.Parallelism, m.Wall.Round(time.Microsecond), 100*m.Utilization())
	cover, peep, ra, emit, verify := m.PhaseTotals()
	fmt.Fprintf(&sb, "phases:  cover %v, peephole %v, regalloc %v, emit %v, verify %v (cpu across workers)\n",
		cover.Round(time.Microsecond), peep.Round(time.Microsecond),
		ra.Round(time.Microsecond), emit.Round(time.Microsecond), verify.Round(time.Microsecond))
	fmt.Fprintf(&sb, "effort:  %d assignments explored, %d spills, %d instrs saved by peephole, %d verifier violations\n",
		m.TotalAssignments(), m.TotalSpills(), m.TotalPeepholeSaved(), m.TotalViolations())
	fmt.Fprintf(&sb, "search:  %d assignments pruned by lower bound, %d/%d blocks from compile cache (%d via disk tier)\n",
		m.TotalPrunedAssignments(), m.CacheHits(), len(m.Blocks), m.DiskHits())
	for _, b := range m.Blocks {
		fmt.Fprintf(&sb, "block %-10s w%-2d %4d SN-DAG nodes, %3d instrs, %2d spills, %6d assignments, peephole -%d, %v\n",
			b.Block, b.Worker, b.DAGNodes, b.Instructions, b.Spills,
			b.AssignmentsExplored, b.PeepholeSaved, b.Total.Round(time.Microsecond))
	}
	return sb.String()
}

// Collector accumulates block metrics from concurrently running pipeline
// workers. All methods are safe for concurrent use.
type Collector struct {
	mu          sync.Mutex
	parallelism int
	start       time.Time
	blocks      map[int]BlockMetrics // keyed by original block index
	busy        []time.Duration
}

// NewCollector starts a collection for a run with the given worker-pool
// size. The wall clock starts immediately.
func NewCollector(parallelism int) *Collector {
	if parallelism < 1 {
		parallelism = 1
	}
	return &Collector{
		parallelism: parallelism,
		start:       time.Now(),
		blocks:      make(map[int]BlockMetrics),
		busy:        make([]time.Duration, parallelism),
	}
}

// ReportBlock records the metrics for the block at the given original
// index, compiled by the given worker, and credits the worker's busy time.
func (c *Collector) ReportBlock(index, worker int, bm BlockMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	bm.Worker = worker
	c.blocks[index] = bm
	if worker >= 0 && worker < len(c.busy) {
		c.busy[worker] += bm.Total
	}
}

// Finish stops the wall clock and returns the aggregated metrics, with
// blocks restored to original order.
func (c *Collector) Finish() *CompileMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := &CompileMetrics{
		Parallelism: c.parallelism,
		Wall:        time.Since(c.start),
		WorkerBusy:  append([]time.Duration(nil), c.busy...),
	}
	idxs := make([]int, 0, len(c.blocks))
	for i := range c.blocks {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		m.Blocks = append(m.Blocks, c.blocks[i])
	}
	return m
}

// Timer measures one phase: call Phase around the phase body, or Start /
// the returned stop func for manual control.
type Timer struct {
	start time.Time
}

// StartTimer begins timing.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Elapsed returns the time since StartTimer.
func (t Timer) Elapsed() time.Duration { return time.Since(t.start) }
