// Package server implements avivd, the compile-as-a-service layer: an
// HTTP/JSON front end over aviv.CompileSource with a bounded worker
// pool, single-flight deduplication of identical in-flight requests,
// per-request machine-description interning, request timeouts, and
// load shedding when the queue is full.
//
// The served output is byte-identical to a local compile with the same
// options — the server adds caching and admission control, never
// different code. That invariant is locked in by the root-package
// differential test (server_diff_test.go).
package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"aviv"
	"aviv/internal/cover"
	"aviv/internal/diskcache"
	"aviv/internal/isdl"
	"aviv/internal/lru"
	"aviv/internal/metrics"
)

// CompileRequest is the JSON body of POST /compile.
type CompileRequest struct {
	// Source is the mini-C program text.
	Source string `json:"source"`
	// Machine is the textual ISDL machine description. It is parsed and
	// fingerprinted once per distinct text and shared across requests.
	Machine string `json:"machine"`
	// Unroll is the loop-unroll factor (0 or 1 disables).
	Unroll int `json:"unroll,omitempty"`
	// Preset selects the covering options: "" or "default" for the
	// heuristics-on configuration, "exhaustive" for heuristics-off.
	Preset string `json:"preset,omitempty"`
	// Verify enables the static translation validator on the result.
	Verify bool `json:"verify,omitempty"`
}

// CompileResponse is the JSON body answering /compile. Compile-time
// failures (parse errors, covering failures, verification rejections)
// are deterministic properties of the request and travel in Error with
// HTTP 200; non-200 statuses are reserved for server conditions
// (overload, timeout, malformed request) where retrying or falling back
// to a local compile makes sense.
type CompileResponse struct {
	// Assembly is the full program text, byte-identical to a local
	// compile of the same request.
	Assembly string `json:"assembly,omitempty"`
	// CodeSize is the total program size in instructions.
	CodeSize int `json:"code_size,omitempty"`
	// Blocks is the number of compiled basic blocks.
	Blocks int `json:"blocks,omitempty"`
	// CacheHits counts blocks reused from the memory tier.
	CacheHits int `json:"cache_hits,omitempty"`
	// DiskHits counts blocks rebuilt from the persistent tier.
	DiskHits int `json:"disk_hits,omitempty"`
	// StitchedBlocks = CacheHits + DiskHits; RecompiledBlocks counts the
	// blocks covered fresh.
	StitchedBlocks   int `json:"stitched_blocks,omitempty"`
	RecompiledBlocks int `json:"recompiled_blocks,omitempty"`
	// Error is the compile failure, if any.
	Error string `json:"error,omitempty"`
	// Deduped reports the response was shared with an identical
	// in-flight request (set per-response, not part of the shared
	// compile outcome).
	Deduped bool `json:"deduped,omitempty"`
}

// StatsResponse is the JSON body of GET /stats.
type StatsResponse struct {
	Server metrics.ServerSnapshot `json:"server"`
	// MemCache reports the memory tier, when present.
	MemCache *cover.CacheStats `json:"mem_cache,omitempty"`
	// Disk reports the persistent tier, when it is an
	// internal/diskcache store.
	Disk *diskcache.Stats `json:"disk,omitempty"`
	// Delta reports the per-tier block counters summed over every
	// request; it is present on every server (Entries and Evictions
	// stay 0 without a memory tier).
	Delta *metrics.CacheStats `json:"delta,omitempty"`
}

// Config configures a Server.
type Config struct {
	// Options is the base compile configuration. Cache and DiskCache
	// are shared across all requests (that is the point of the server:
	// every block whose key an earlier request already compiled is
	// reused instead of re-covered);
	// Parallelism is resolved through aviv.ResolveParallelism into the
	// server's worker-pool size. Each individual compile runs serially
	// — concurrency comes from serving requests in parallel, and the
	// emitted program is byte-identical at any parallelism anyway.
	Options aviv.Options
	// QueueLimit bounds requests waiting for a worker before new ones
	// are shed with 429; <= 0 selects 4x the worker count.
	QueueLimit int
	// Timeout bounds each request's wait for its compile result;
	// exceeding it answers 504. <= 0 selects 30s.
	Timeout time.Duration
	// Delta does nothing.
	//
	// Deprecated: every compile is incremental through Options.Cache
	// and Options.DiskCache.
	Delta bool
	// DeltaEntries does nothing.
	//
	// Deprecated: Options.Cache (cover.NewBoundedCache) is the one
	// memory tier and carries the one entry cap.
	DeltaEntries int
}

// errShed rejects work when the queue is full.
var errShed = errors.New("server: queue full")

// Server is the avivd compile service. Create with New, expose with
// Handler.
type Server struct {
	cfg      Config
	workers  int
	queueCap int
	timeout  time.Duration
	sem      chan struct{}
	flight   flightGroup
	machines machineInterner
	counters metrics.ServerCounters

	reuseMu sync.Mutex
	reuse   metrics.CacheStats // block counts summed over every compile
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	workers := aviv.ResolveParallelism(cfg.Options.Parallelism)
	queueCap := cfg.QueueLimit
	if queueCap <= 0 {
		queueCap = 4 * workers
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	s := &Server{
		cfg:      cfg,
		workers:  workers,
		queueCap: queueCap,
		timeout:  timeout,
		sem:      make(chan struct{}, workers),
		machines: newMachineInterner(),
	}
	s.flight.onAbandon = func() { s.counters.Abandoned.Add(1) }
	return s
}

// Workers returns the resolved worker-pool size.
func (s *Server) Workers() int { return s.workers }

// Counters exposes the live server counters (for tests and benches).
func (s *Server) Counters() *metrics.ServerCounters { return &s.counters }

// Stats assembles the /stats payload.
func (s *Server) Stats() StatsResponse {
	s.reuseMu.Lock()
	d := s.reuse
	s.reuseMu.Unlock()
	out := StatsResponse{Server: s.counters.Snapshot(), Delta: &d}
	if c := s.cfg.Options.Cache; c != nil {
		st := c.Stats()
		out.MemCache = &st
		d.Entries, d.Evictions = int64(st.Entries), st.Evictions
	}
	if dc, ok := s.cfg.Options.DiskCache.(interface{ Stats() diskcache.Stats }); ok {
		st := dc.Stats()
		out.Disk = &st
	}
	return out
}

// Handler returns the HTTP surface: POST /compile, GET /stats,
// GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.handleCompile)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.counters.Requests.Add(1)
	var req CompileRequest
	body := http.MaxBytesReader(w, r.Body, 16<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Source == "" || req.Machine == "" {
		http.Error(w, "bad request: source and machine are required", http.StatusBadRequest)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
	defer cancel()
	key := RequestKey(req)
	resp, shared, err := s.flight.do(ctx, key, func(runCtx context.Context) (*CompileResponse, error) {
		return s.compile(runCtx, req)
	})
	if shared {
		s.counters.Deduped.Add(1)
	}
	switch {
	case errors.Is(err, errShed):
		// The hint carries per-rejection jitter so a burst of shed
		// clients retries staggered instead of in lockstep; deriving it
		// from the shed counter keeps it deterministic for tests.
		n := s.counters.Shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(1+int(n&3)))
		http.Error(w, "queue full, retry later", http.StatusTooManyRequests)
		return
	case errors.Is(err, context.DeadlineExceeded):
		s.counters.Timeouts.Add(1)
		http.Error(w, "compile timed out", http.StatusGatewayTimeout)
		return
	case err != nil:
		// Client went away (request context canceled): nothing to write.
		return
	}
	out := *resp
	out.Deduped = shared
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// compile runs one deduplicated compile under admission control: shed
// when too many requests are already waiting, otherwise queue for a
// worker slot — a wait ctx interrupts, so an abandoned flight stops
// consuming queue capacity. Compile failures are in-band (see
// CompileResponse); the error return is reserved for admission
// decisions.
func (s *Server) compile(ctx context.Context, req CompileRequest) (*CompileResponse, error) {
	if s.counters.Queued.Add(1) > int64(s.queueCap) {
		s.counters.Queued.Add(-1)
		return nil, errShed
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.counters.Queued.Add(-1)
		return nil, ctx.Err()
	}
	s.counters.Queued.Add(-1)
	s.counters.Inflight.Add(1)
	defer func() {
		s.counters.Inflight.Add(-1)
		<-s.sem //lint:reason releases a token this goroutine holds in a buffered semaphore; the receive can never block
	}()

	m, err := s.machines.intern(req.Machine, &s.counters)
	if err != nil {
		s.counters.Errors.Add(1)
		return &CompileResponse{Error: "machine: " + err.Error()}, nil
	}
	opts, err := s.requestOptions(req)
	if err != nil {
		s.counters.Errors.Add(1)
		return &CompileResponse{Error: err.Error()}, nil
	}
	res, err := aviv.CompileSource(req.Source, m, max(req.Unroll, 1), opts)
	if err != nil {
		s.counters.Errors.Add(1)
		return &CompileResponse{Error: err.Error()}, nil
	}
	s.counters.Completed.Add(1)
	reuse := res.Metrics.Reuse()
	s.reuseMu.Lock()
	s.reuse.Add(reuse)
	s.reuseMu.Unlock()
	return &CompileResponse{
		Assembly:         res.Program.String(),
		CodeSize:         res.CodeSize(),
		Blocks:           len(res.Blocks),
		CacheHits:        int(reuse.MemHits),
		DiskHits:         int(reuse.DiskHits),
		StitchedBlocks:   int(reuse.Stitched),
		RecompiledBlocks: int(reuse.Recompiled),
	}, nil
}

// requestOptions maps a request onto compile options: the preset picks
// the covering configuration, the server supplies the shared cache
// tiers, and each compile runs its block pipeline serially (request-
// level parallelism is the server pool's job).
func (s *Server) requestOptions(req CompileRequest) (aviv.Options, error) {
	var opts aviv.Options
	switch req.Preset {
	case "", "default":
		opts = aviv.DefaultOptions()
	case "exhaustive":
		opts = aviv.ExhaustiveOptions()
	default:
		return opts, fmt.Errorf("unknown preset %q (want \"default\" or \"exhaustive\")", req.Preset)
	}
	opts.Verify = req.Verify
	opts.Cache = s.cfg.Options.Cache
	opts.DiskCache = s.cfg.Options.DiskCache
	opts.Parallelism = 1
	return opts, nil
}

// RequestKey fingerprints everything that determines a compile's
// output, so the single-flight group only merges requests whose results
// are interchangeable. The cluster router reuses it as the ring key:
// ownership follows content, so identical requests land on the same
// server no matter which client sends them. Spellings that compile
// alike hash alike: Preset "" is "default", and every Unroll ≤ 1 means
// no unrolling.
func RequestKey(req CompileRequest) string {
	h := sha256.New()
	put := func(s string) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	put(req.Source)
	put(req.Machine)
	preset := req.Preset
	if preset == "" {
		preset = "default"
	}
	put(preset)
	put(fmt.Sprint(max(req.Unroll, 1)))
	put(fmt.Sprint(req.Verify))
	return string(h.Sum(nil))
}

// maxInternedMachines caps the machine interner. A server sees a
// handful of machine descriptions; the cap only keeps a client that
// sends ever-new texts from growing the map without bound.
const maxInternedMachines = 64

// machineInterner parses (and so fingerprints, in isdl.Finalize) each
// distinct machine text once, sharing the resulting *isdl.Machine
// pointer across requests. It keeps the most recently used
// maxInternedMachines texts; an evicted text is parsed again on its
// next request, into an equal machine.
type machineInterner struct {
	byText *lru.Cache[string, *isdl.Machine]
}

func newMachineInterner() machineInterner {
	return machineInterner{byText: lru.New[string, *isdl.Machine](maxInternedMachines, nil)}
}

func (mi *machineInterner) intern(text string, counters *metrics.ServerCounters) (*isdl.Machine, error) {
	if m, ok := mi.byText.Get(text); ok {
		return m, nil
	}
	parsed, err := isdl.Parse(text)
	if err != nil {
		return nil, err
	}
	// Two racers may parse the same text; keep the first so the pointer
	// stays stable across requests.
	m, added := mi.byText.Add(text, parsed)
	if added {
		counters.MachinesInterned.Add(1)
	}
	return m, nil
}
