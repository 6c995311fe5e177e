package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestTotalsSumBlocksAndWorkers(t *testing.T) {
	m := &CompileMetrics{
		Parallelism: 3,
		WorkerBusy:  []time.Duration{4 * time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond},
	}
	for i := 0; i < 10; i++ {
		m.Blocks = append(m.Blocks, BlockMetrics{
			Block:               "b" + string(rune('0'+i)),
			Worker:              i % 3,
			AssignmentsExplored: i,
			PeepholeSaved:       1,
			PrunedAssignments:   3,
			Spills:              2,
			Violations:          i % 2,
			Total:               time.Millisecond,
		})
	}
	if got := m.TotalAssignments(); got != 45 {
		t.Errorf("TotalAssignments = %d, want 45", got)
	}
	if got := m.TotalPeepholeSaved(); got != 10 {
		t.Errorf("TotalPeepholeSaved = %d, want 10", got)
	}
	if got := m.TotalPrunedAssignments(); got != 30 {
		t.Errorf("TotalPrunedAssignments = %d, want 30", got)
	}
	if got := m.TotalSpills(); got != 20 {
		t.Errorf("TotalSpills = %d, want 20", got)
	}
	if got := m.TotalViolations(); got != 5 {
		t.Errorf("TotalViolations = %d, want 5", got)
	}
	if got := m.BusyTotal(); got != 10*time.Millisecond {
		t.Errorf("BusyTotal = %v, want 10ms", got)
	}
}

func TestPhaseTotalsAndUtilization(t *testing.T) {
	m := &CompileMetrics{
		Parallelism: 2,
		Wall:        100 * time.Millisecond,
		WorkerBusy:  []time.Duration{80 * time.Millisecond, 40 * time.Millisecond},
		Blocks: []BlockMetrics{
			{Cover: 10 * time.Millisecond, Peephole: time.Millisecond, Regalloc: 2 * time.Millisecond, Emit: 3 * time.Millisecond, Verify: time.Millisecond},
			{Cover: 20 * time.Millisecond, Peephole: 2 * time.Millisecond, Regalloc: 4 * time.Millisecond, Emit: 6 * time.Millisecond, Verify: 4 * time.Millisecond},
		},
	}
	cover, peep, ra, emit, verify := m.PhaseTotals()
	if cover != 30*time.Millisecond || peep != 3*time.Millisecond ||
		ra != 6*time.Millisecond || emit != 9*time.Millisecond || verify != 5*time.Millisecond {
		t.Errorf("PhaseTotals = %v %v %v %v %v", cover, peep, ra, emit, verify)
	}
	if u := m.Utilization(); u < 0.59 || u > 0.61 {
		t.Errorf("Utilization = %v, want 0.6", u)
	}
	// Degenerate metrics do not divide by zero.
	if u := new(CompileMetrics).Utilization(); u != 0 {
		t.Errorf("zero-value Utilization = %v, want 0", u)
	}
}

func TestStringReport(t *testing.T) {
	m := &CompileMetrics{
		Parallelism: 1,
		WorkerBusy:  []time.Duration{0},
		Blocks:      []BlockMetrics{{Block: "entry", DAGNodes: 12, Instructions: 5, AssignmentsExplored: 7}},
	}
	s := m.String()
	for _, want := range []string{"parallelism 1", "block entry", "7 assignments", "phases:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}
