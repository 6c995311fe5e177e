package metrics

import (
	"encoding/json"
	"testing"
)

// TestClusterStatsJSONShape pins the field names of the /stats
// "cluster" section — the endpoint's monitoring contract, mirroring
// TestCacheStatsJSONShape for the "delta" section.
func TestClusterStatsJSONShape(t *testing.T) {
	data, err := json.Marshal(ClusterStats{
		Self: "n", Nodes: 1, Healthy: 2, Draining: true,
		Forwarded: 3, LocalFallbacks: 4, PeerHits: 5, PeerMisses: 6,
		PeerPushes: 7, PeerRejects: 8, ForwardErrors: 9, Drained: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"self":"n","nodes":1,"healthy":2,"draining":true,` +
		`"forwarded":3,"local_fallbacks":4,"peer_hits":5,"peer_misses":6,` +
		`"peer_pushes":7,"peer_rejects":8,"forward_errors":9,"drained":10}`
	if string(data) != want {
		t.Fatalf("ClusterStats JSON =\n%s\nwant\n%s", data, want)
	}
}
