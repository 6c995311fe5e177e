package metrics

import "sync/atomic"

// ServerCounters tracks a running avivd compile server. All fields are
// updated atomically by concurrent request handlers; Snapshot returns a
// consistent-enough point-in-time view for the /stats endpoint (each
// counter is read atomically; cross-counter skew of in-flight requests
// is acceptable for monitoring).
type ServerCounters struct {
	// Requests counts every POST to /compile, counted before its body
	// is decoded: shed, malformed and timed-out requests are included
	// (so Shed / Requests is the shed ratio).
	Requests atomic.Int64
	// Completed counts requests that finished with a compile result.
	Completed atomic.Int64
	// Errors counts requests whose compilation failed.
	Errors atomic.Int64
	// Deduped counts requests answered by piggybacking on an identical
	// in-flight compile (single-flight hits).
	Deduped atomic.Int64
	// Shed counts requests rejected with 429 because the queue was full.
	Shed atomic.Int64
	// Timeouts counts requests that exceeded the per-request deadline.
	Timeouts atomic.Int64
	// Abandoned counts in-flight compiles cancelled because every
	// waiting request gave up (timed out or disconnected) before the
	// result arrived.
	Abandoned atomic.Int64
	// Inflight is the number of requests currently being processed.
	Inflight atomic.Int64
	// Queued is the number of requests waiting for a worker slot.
	Queued atomic.Int64
	// MachinesInterned counts distinct machine descriptions parsed and
	// cached by the interner.
	MachinesInterned atomic.Int64
	// Forwarded counts compile requests answered by forwarding to the
	// owning cluster shard; LocalFallbacks counts requests compiled
	// locally because the owning shard was unreachable. Both stay 0 on
	// a node running outside a cluster.
	Forwarded      atomic.Int64
	LocalFallbacks atomic.Int64
	// PeerHits / PeerMisses count cache entries fetched from (or
	// missed at) the owning shard over the wire.
	PeerHits   atomic.Int64
	PeerMisses atomic.Int64
	// ForwardErrors counts peer RPCs that failed in transit; each
	// degrades to a local compile or a cache miss, never an error.
	ForwardErrors atomic.Int64
	// Drained counts cache entries bled to their ring owners during a
	// graceful drain.
	Drained atomic.Int64
}

// ServerSnapshot is the JSON shape of ServerCounters for /stats.
type ServerSnapshot struct {
	Requests         int64 `json:"requests"`
	Completed        int64 `json:"completed"`
	Errors           int64 `json:"errors"`
	Deduped          int64 `json:"deduped"`
	Shed             int64 `json:"shed"`
	Timeouts         int64 `json:"timeouts"`
	Abandoned        int64 `json:"abandoned"`
	Inflight         int64 `json:"inflight"`
	Queued           int64 `json:"queued"`
	MachinesInterned int64 `json:"machines_interned"`
	// Block reuse is reported once, in the "delta" section
	// (CacheStats). The cluster counters stay 0 (but present, for a
	// stable shape) on a node running outside a cluster.
	Forwarded      int64 `json:"forwarded"`
	LocalFallbacks int64 `json:"local_fallbacks"`
	PeerHits       int64 `json:"peer_hits"`
	PeerMisses     int64 `json:"peer_misses"`
	ForwardErrors  int64 `json:"forward_errors"`
	Drained        int64 `json:"drained"`
}

// Snapshot reads every counter atomically.
func (c *ServerCounters) Snapshot() ServerSnapshot {
	return ServerSnapshot{
		Requests:         c.Requests.Load(),
		Completed:        c.Completed.Load(),
		Errors:           c.Errors.Load(),
		Deduped:          c.Deduped.Load(),
		Shed:             c.Shed.Load(),
		Timeouts:         c.Timeouts.Load(),
		Abandoned:        c.Abandoned.Load(),
		Inflight:         c.Inflight.Load(),
		Queued:           c.Queued.Load(),
		MachinesInterned: c.MachinesInterned.Load(),
		Forwarded:        c.Forwarded.Load(),
		LocalFallbacks:   c.LocalFallbacks.Load(),
		PeerHits:         c.PeerHits.Load(),
		PeerMisses:       c.PeerMisses.Load(),
		ForwardErrors:    c.ForwardErrors.Load(),
		Drained:          c.Drained.Load(),
	}
}

// DedupRate returns deduped / (requests), or 0 before any request.
func (s ServerSnapshot) DedupRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Deduped) / float64(s.Requests)
}
