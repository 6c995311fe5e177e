package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aviv"
	"aviv/internal/cover"
	"aviv/internal/diskcache"
	"aviv/internal/server"
)

// Request headers the benchmark's client sets. The server ignores them;
// the traced middleware reads them to tie its span to the client's.
const (
	idHeader   = "X-Perfbench-Request"
	spanHeader = "X-Perfbench-Span"
)

// setupIDBase numbers set-up requests apart from timed ones.
const setupIDBase = 1 << 20

// diskMaxBytes is avivd's default -cache-max-mb.
const diskMaxBytes = 512 << 20

// sample is one request as the client saw it.
type sample struct {
	prog    int
	lat     time.Duration
	ok      bool
	problem string // why the request failed, when !ok
	asm     string
	bytes   int // len(asm), kept after the text is dropped
}

// round is one set-up and one timed pass over a workload, against a
// fresh server with a fresh disk tier.
type round struct {
	traced bool
	setup  time.Duration
	wall   time.Duration
	// setupSamples are the set-up responses; samples are the timed
	// ones, indexed by request id.
	setupSamples []sample
	samples      []sample
	use          usage
	// Server stats and disk-wrapper counts around the timed window.
	before, after server.StatsResponse
	store         storeCounts
	// spans are the real-path spans of a traced round: client,
	// server.handler and diskcache.*.
	spans []Span
}

// runRound builds a server exactly as avivd does by default (delta on,
// memory tiers capped as the workload says, a 512 MiB disk tier in a
// fresh directory under scratch), serves it on a loopback listener,
// runs the workload's set-up and then its timed requests with clients
// closed-loop clients, and shuts everything down before returning.
func runRound(w *Workload, clients int, scratch string, traced bool, epoch time.Time) (r *round, err error) {
	start := time.Now()
	dir, err := os.MkdirTemp(scratch, "round-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	disk, err := diskcache.Open(dir, diskMaxBytes)
	if err != nil {
		return nil, err
	}
	var store cover.EntryStore = disk
	var ts *tracedStore
	if traced {
		ts = newTracedStore(disk)
		store = ts
	}
	srv := server.New(server.Config{
		Options: aviv.Options{Cache: cover.NewBoundedCache(w.MemEntries), DiskCache: store},
		Delta:   true, DeltaEntries: w.DeltaEntries,
	})
	handler := srv.Handler()
	var mw *middleware
	if traced {
		mw = &middleware{next: handler}
		handler = mw
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := hs.Shutdown(ctx); serr != nil && err == nil {
			err = fmt.Errorf("shut down server: %w", serr)
		}
		<-served
	}()
	transport := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	c := &client{
		http:   &http.Client{Transport: transport, Timeout: 60 * time.Second},
		url:    "http://" + ln.Addr().String() + "/compile",
		bodies: w.Bodies,
	}

	r = &round{traced: traced}
	r.setupSamples = c.runShared(w.Fill, clients, setupIDBase)
	r.setupSamples = append(r.setupSamples, c.runLanes([][]int{w.Pass}, setupIDBase+len(w.Fill))...)
	r.setup = time.Since(start)

	var tr *Tracer
	if traced {
		tr = NewTracer(epoch)
		c.tr = tr
		mw.tr.Store(tr)
		ts.tr.Store(tr)
	}
	r.before = srv.Stats()
	var sc0 storeCounts
	if ts != nil {
		sc0 = ts.counts()
	}
	u0 := readUsage()
	t0 := time.Now()
	if w.Lanes != nil {
		r.samples = c.runLanes(w.Lanes, 0)
	} else {
		r.samples = c.runShared(w.Shared, clients, 0)
	}
	r.wall = time.Since(t0)
	r.use = readUsage().since(u0)
	r.after = srv.Stats()
	if ts != nil {
		sc := ts.counts()
		r.store = storeCounts{sc.gets - sc0.gets, sc.hits - sc0.hits, sc.puts - sc0.puts}
		r.spans = tr.Spans()
	}
	return r, nil
}

// middleware records a server.handler span around the avivd handler in
// traced rounds.
type middleware struct {
	next http.Handler
	tr   atomic.Pointer[Tracer]
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := m.tr.Load()
	if tr == nil {
		m.next.ServeHTTP(w, r)
		return
	}
	// The headers come from the benchmark's own client; a missing one
	// only leaves the span unattributed.
	id, _ := strconv.Atoi(r.Header.Get(idHeader))
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	span := tr.Begin("server.handler", id, parent)
	m.next.ServeHTTP(w, r)
	tr.End(span)
}

// client sends pre-marshaled /compile bodies.
type client struct {
	http   *http.Client
	url    string
	bodies [][]byte
	tr     *Tracer
}

// runShared sends list with n closed-loop clients that each take the
// next unsent request when their previous one completes. Request i gets
// id idBase+i; the samples come back in list order.
func (c *client) runShared(list []int, n, idBase int) []sample {
	out := make([]sample, len(list))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					return
				}
				out[i] = c.do(idBase+i, list[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// runLanes runs one closed-loop client per lane, each sending its lane
// in order. Ids run lane after lane from idBase.
func (c *client) runLanes(lanes [][]int, idBase int) []sample {
	total := 0
	for _, lane := range lanes {
		total += len(lane)
	}
	out := make([]sample, total)
	var wg sync.WaitGroup
	off := 0
	for _, lane := range lanes {
		wg.Add(1)
		go func(lane []int, off int) {
			defer wg.Done()
			for k, prog := range lane {
				out[off+k] = c.do(idBase+off+k, prog)
			}
		}(lane, off)
		off += len(lane)
	}
	wg.Wait()
	return out
}

// do sends one request. Latency runs from the send to the last byte of
// the response; decoding the response is the client's own work and is
// not part of it.
func (c *client) do(id, prog int) sample {
	s := sample{prog: prog}
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(c.bodies[prog]))
	if err != nil {
		s.problem = err.Error()
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(idHeader, strconv.Itoa(id))
	span := c.tr.Begin("client", id, 0)
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.lat = time.Since(t0)
	c.tr.End(span)
	switch {
	case err != nil:
		s.problem = err.Error()
		return s
	case resp.StatusCode != http.StatusOK:
		s.problem = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return s
	}
	var out server.CompileResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		s.problem = "decode response: " + err.Error()
		return s
	}
	if out.Error != "" {
		s.problem = "compile error: " + out.Error
		return s
	}
	s.ok, s.asm, s.bytes = true, out.Assembly, len(out.Assembly)
	return s
}

// usage is the process's resource use: a snapshot from readUsage, or
// the difference of two from since.
type usage struct {
	cpu        time.Duration // user + system
	allocBytes uint64
	gcCPU      float64 // runtime estimate of GC CPU seconds
	allCPU     float64 // the same estimate for all Go CPU seconds
	numGC      uint32
	pauseNs    [256]uint64
	pauses     []time.Duration // GC pauses inside the window (since only)
}

var usageMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	samples := make([]rtmetrics.Sample, len(usageMetrics))
	for i, name := range usageMetrics {
		samples[i].Name = name
	}
	rtmetrics.Read(samples)
	u.gcCPU = samples[0].Value.Float64()
	u.allCPU = samples[1].Value.Float64()
	u.allocBytes = samples[2].Value.Uint64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.numGC = ms.NumGC
	u.pauseNs = ms.PauseNs
	return u
}

// since returns the use between snapshot u0 and u, with the pauses of
// the GC cycles that ended in between (the runtime keeps the last 256).
func (u usage) since(u0 usage) usage {
	d := usage{
		cpu:        u.cpu - u0.cpu,
		allocBytes: u.allocBytes - u0.allocBytes,
		gcCPU:      u.gcCPU - u0.gcCPU,
		allCPU:     u.allCPU - u0.allCPU,
		numGC:      u.numGC - u0.numGC,
	}
	for n := u0.numGC + 1; n <= u.numGC; n++ {
		if u.numGC-n < 256 {
			d.pauses = append(d.pauses, time.Duration(u.pauseNs[(n+255)%256]))
		}
	}
	return d
}

// peakRSS is the process's peak resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Maxrss << 10 // Linux reports KiB
}
