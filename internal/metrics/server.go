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
}

// ServerSnapshot is the JSON shape of ServerCounters for /stats. Block
// reuse is reported once, in the "delta" section (CacheStats).
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
	}
}
