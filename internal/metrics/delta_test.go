package metrics

import (
	"encoding/json"
	"testing"
)

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
// the cluster counters must be present (as zeros) even on a server run
// outside a cluster, so dashboards see a stable shape, and block reuse
// must not be repeated there (it is reported once, in CacheStats).
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
		"forwarded", "local_fallbacks", "peer_hits", "peer_misses",
		"forward_errors", "drained",
	} {
		if _, ok := m[field]; !ok {
			t.Fatalf("ServerSnapshot JSON lacks %q: %s", field, data)
		}
	}
	for _, field := range []string{"blocks_stitched", "blocks_recompiled", "delta_invalidations"} {
		if _, ok := m[field]; ok {
			t.Fatalf("ServerSnapshot JSON repeats the delta section's %q: %s", field, data)
		}
	}
}
