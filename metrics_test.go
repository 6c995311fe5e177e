package aviv

import (
	"strings"
	"testing"

	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/isdl"
)

// TestMetricsSearchCounters sanity-checks the fast-path counters fed to
// the -stats report: the branch-and-bound count is
// deterministic across identical compiles, cache hits appear only with
// a warm cache (and then on every block), and the report prints them.
func TestMetricsSearchCounters(t *testing.T) {
	f, _ := bench.MultiBlock(1, 6, 12)
	m := isdl.ExampleArchFull(4)
	opts := DefaultOptions()
	opts.Parallelism = 1

	r1, err := Compile(f, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Compile(f, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Metrics.TotalPrunedAssignments() != r2.Metrics.TotalPrunedAssignments() {
		t.Fatalf("pruned-assignment count not deterministic: %d vs %d",
			r1.Metrics.TotalPrunedAssignments(), r2.Metrics.TotalPrunedAssignments())
	}
	if r1.Metrics.CacheHits() != 0 {
		t.Fatalf("cache hits without a cache: %d", r1.Metrics.CacheHits())
	}
	if r1.Metrics.TotalPrunedAssignments() < 0 {
		t.Fatal("negative search counters")
	}

	cached := opts
	cached.Cache = cover.NewBoundedCache(0)
	if _, err := Compile(f, m, cached); err != nil {
		t.Fatal(err)
	}
	warm, err := Compile(f, m, cached)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := warm.Metrics.CacheHits(), len(warm.Metrics.Blocks); got != want {
		t.Fatalf("warm compile hit %d/%d blocks", got, want)
	}

	report := warm.Metrics.String()
	if !strings.Contains(report, "search:") ||
		!strings.Contains(report, "pruned by lower bound") ||
		!strings.Contains(report, "blocks from compile cache") {
		t.Fatalf("-stats report lacks the search counters:\n%s", report)
	}
}
