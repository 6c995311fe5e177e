package metrics

import "fmt"

// ClusterStats is the "cluster" section of an avivd node's /stats
// payload: a point-in-time view of the node's place in the compile
// cluster — ring membership and health as this node sees it, plus the
// peer-path counters (forwarding, cache peering, drain). It mirrors
// the "delta" section (CacheStats): a plain JSON-stable struct whose
// field names are a monitoring contract, pinned by shape tests.
type ClusterStats struct {
	// Self is this node's advertised URL on the hash ring.
	Self string `json:"self"`
	// Nodes is the configured ring membership size (self included);
	// Healthy is how many members this node currently believes are
	// serving (self included unless draining).
	Nodes   int `json:"nodes"`
	Healthy int `json:"healthy"`
	// Draining reports the node has begun its graceful drain: health
	// probes are answered 503 and locally held cache entries are being
	// bled to their ring owners.
	Draining bool `json:"draining"`
	// Forwarded counts compile requests this node answered by
	// forwarding to the key's owning shard; LocalFallbacks counts
	// requests compiled locally because the owner was unreachable.
	Forwarded      int64 `json:"forwarded"`
	LocalFallbacks int64 `json:"local_fallbacks"`
	// PeerHits / PeerMisses count cache-entry fetches from owning
	// shards (a hit adopts the entry locally; every failure — absent,
	// unreachable, corrupt — is a miss).
	PeerHits   int64 `json:"peer_hits"`
	PeerMisses int64 `json:"peer_misses"`
	// PeerPushes counts entries sent to their owning shard
	// (write-through on compile plus drain bleeding); PeerRejects
	// counts transferred entries this node refused because the
	// checksummed framing did not verify.
	PeerPushes  int64 `json:"peer_pushes"`
	PeerRejects int64 `json:"peer_rejects"`
	// ForwardErrors counts peer RPCs that failed in transit (timeout,
	// connection refused, 5xx) — each degrades to a local compile or a
	// cache miss, never an error response.
	ForwardErrors int64 `json:"forward_errors"`
	// Drained counts cache entries bled to their owners during drain.
	Drained int64 `json:"drained"`
}

// String renders the one-line "cluster:" summary; the shape is pinned
// by TestClusterStatsStringShape.
func (s ClusterStats) String() string {
	return fmt.Sprintf(
		"cluster: %d/%d nodes healthy, %d forwarded, %d local fallbacks; "+
			"peer %d/%d hit/miss, %d pushed, %d rejected, %d forward errors, %d drained",
		s.Healthy, s.Nodes, s.Forwarded, s.LocalFallbacks,
		s.PeerHits, s.PeerMisses, s.PeerPushes, s.PeerRejects,
		s.ForwardErrors, s.Drained)
}
