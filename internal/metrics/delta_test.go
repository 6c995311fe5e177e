package metrics

import (
	"encoding/json"
	"testing"
)

// TestCacheStatsStringShape pins the "delta:" line of avivbench -edit
// verbatim: tooling that scrapes the reports depends on this exact
// shape.
func TestCacheStatsStringShape(t *testing.T) {
	s := CacheStats{
		Entries:       56,
		MemHits:       144,
		MemMisses:     56,
		DiskHits:      3,
		DiskMisses:    53,
		Stitched:      147,
		Recompiled:    49,
		Invalidations: 2,
		Evictions:     1,
	}
	want := "delta: 147 stitched (144 mem, 3 disk), 49 recompiled, 75% stitch rate; " +
		"mem 144/56 hit/miss, disk 3/53 hit/miss, 2 invalidated, 1 evicted, 56 entries"
	if got := s.String(); got != want {
		t.Fatalf("CacheStats.String() =\n%q\nwant\n%q", got, want)
	}
	if got := (CacheStats{}).StitchRate(); got != 0 {
		t.Fatalf("zero-value StitchRate() = %v, want 0", got)
	}
}

// TestCacheStatsJSONShape pins the field names of the /stats "delta"
// section — the endpoint's monitoring contract.
func TestCacheStatsJSONShape(t *testing.T) {
	data, err := json.Marshal(CacheStats{Entries: 1, MemHits: 2, MemMisses: 3,
		DiskHits: 4, DiskMisses: 5, Stitched: 6, Recompiled: 7, Invalidations: 8, Evictions: 9})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"entries":1,"mem_hits":2,"mem_misses":3,"disk_hits":4,"disk_misses":5,` +
		`"stitched":6,"recompiled":7,"invalidations":8,"evictions":9}`
	if string(data) != want {
		t.Fatalf("CacheStats JSON =\n%s\nwant\n%s", data, want)
	}
}

// TestServerSnapshotHasDeltaCounters pins the ServerSnapshot field set:
// the delta and cluster counters must be present (as zeros) even on a
// server run without the engine or outside a cluster, so dashboards see
// a stable shape.
func TestServerSnapshotHasDeltaCounters(t *testing.T) {
	var c ServerCounters
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"blocks_stitched", "blocks_recompiled", "delta_invalidations",
		"forwarded", "local_fallbacks", "peer_hits", "peer_misses",
		"forward_errors", "drained",
	} {
		if _, ok := m[field]; !ok {
			t.Fatalf("ServerSnapshot JSON lacks %q: %s", field, data)
		}
	}
}
