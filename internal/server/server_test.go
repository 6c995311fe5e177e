package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aviv"
	"aviv/internal/cover"
	"aviv/internal/isdl"
)

// multiBlockSource branches, so it lowers to several basic blocks.
const multiBlockSource = `
if (a > b) { m = a - b; } else { m = b - a; }
s = m * 3;
if (s > 9) { s = s - 9; }
out = s + a;
`

const testSource = `
x = 3;
y = x * 5;
z = x + y;
w = (x - y) * (z + 2);
`

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postCompile(t *testing.T, url string, req CompileRequest) (*http.Response, CompileResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /compile: %v", err)
	}
	defer httpResp.Body.Close()
	var resp CompileResponse
	if httpResp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return httpResp, resp
}

// TestSingleFlightDeterministic drives the flight group directly with a
// blocked function, so leader/follower interleaving is fully controlled.
func TestSingleFlightDeterministic(t *testing.T) {
	var g flightGroup
	release := make(chan struct{})
	started := make(chan struct{})
	want := &CompileResponse{Assembly: "shared result"}
	fn := func(context.Context) (*CompileResponse, error) {
		close(started)
		<-release
		return want, nil
	}

	type outcome struct {
		resp   *CompileResponse
		shared bool
		err    error
	}
	leaderDone := make(chan outcome, 1)
	go func() {
		resp, shared, err := g.do(context.Background(), "k", fn)
		leaderDone <- outcome{resp, shared, err}
	}()
	<-started // fn is in flight; any do() from here on must piggyback

	followerDone := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, shared, err := g.do(context.Background(), "k", func(context.Context) (*CompileResponse, error) {
				t.Error("follower executed fn despite in-flight leader")
				return nil, nil
			})
			followerDone <- outcome{resp, shared, err}
		}()
	}
	// Wait until both followers (plus the leader) are parked on the
	// in-flight call before letting it finish.
	deadline := time.Now().Add(5 * time.Second)
	for g.waiters.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("followers never blocked on the in-flight call")
		}
		time.Sleep(time.Millisecond)
	}

	// A follower with an already-expired context times out without
	// waiting and without cancelling the leader.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, shared, err := g.do(expired, "k", fn); !shared || err == nil {
		t.Errorf("expired-context follower: shared=%v err=%v, want true, non-nil", shared, err)
	}

	close(release)
	lo := <-leaderDone
	if lo.err != nil || lo.shared || lo.resp != want {
		t.Errorf("leader: resp=%p shared=%v err=%v, want %p/false/nil", lo.resp, lo.shared, lo.err, want)
	}
	for i := 0; i < 2; i++ {
		fo := <-followerDone
		if fo.err != nil || !fo.shared || fo.resp != want {
			t.Errorf("follower: resp=%p shared=%v err=%v, want %p/true/nil", fo.resp, fo.shared, fo.err, want)
		}
	}

	// The call is gone; the next do() runs fresh.
	ran := false
	if _, shared, _ := g.do(context.Background(), "k", func(context.Context) (*CompileResponse, error) {
		ran = true
		return nil, nil
	}); shared || !ran {
		t.Errorf("post-completion do: shared=%v ran=%v, want false/true", shared, ran)
	}
}

// TestSingleFlightAbandonment proves the waiter-counted cancellation:
// when the last waiter gives up, the execution context is cancelled,
// the abandonment is counted, and the key is re-armed so a later
// identical request starts a fresh flight instead of chaining to a
// result nobody consumes.
func TestSingleFlightAbandonment(t *testing.T) {
	var g flightGroup
	abandoned := 0
	g.onAbandon = func() { abandoned++ }

	started := make(chan struct{})
	var execCtx context.Context
	fn := func(ctx context.Context) (*CompileResponse, error) {
		execCtx = ctx
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, _, err := g.do(ctx, "k", fn)
		waitErr <- err
	}()
	<-started
	cancel() // the only waiter gives up

	if err := <-waitErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter got err=%v, want context.Canceled", err)
	}
	select {
	case <-execCtx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("execution context not cancelled after the last waiter left")
	}
	if abandoned != 1 {
		t.Errorf("abandoned count = %d, want 1", abandoned)
	}

	// The key is re-armed immediately: a fresh do() runs its own fn.
	ran := false
	resp, shared, err := g.do(context.Background(), "k", func(context.Context) (*CompileResponse, error) {
		ran = true
		return &CompileResponse{Assembly: "fresh"}, nil
	})
	if err != nil || shared || !ran || resp == nil || resp.Assembly != "fresh" {
		t.Errorf("post-abandonment do: resp=%v shared=%v ran=%v err=%v, want fresh/false/true/nil",
			resp, shared, ran, err)
	}
}

func TestCompileMatchesLocal(t *testing.T) {
	cache := cover.NewBoundedCache(1024)
	_, ts := testServer(t, Config{Options: aviv.Options{Cache: cache, Parallelism: 2}})

	httpResp, resp := postCompile(t, ts.URL, CompileRequest{Source: testSource, Machine: isdl.ExampleArchISDL})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", httpResp.StatusCode)
	}
	if resp.Error != "" {
		t.Fatalf("compile error: %s", resp.Error)
	}

	m, err := isdl.Parse(isdl.ExampleArchISDL)
	if err != nil {
		t.Fatal(err)
	}
	local, err := aviv.CompileSource(testSource, m, 1, aviv.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Assembly != local.Program.String() {
		t.Errorf("served assembly differs from local compile\n--- served ---\n%s--- local ---\n%s", resp.Assembly, local.Program)
	}
	if resp.CodeSize != local.CodeSize() || resp.Blocks != len(local.Blocks) {
		t.Errorf("metadata: size=%d blocks=%d, want %d/%d", resp.CodeSize, resp.Blocks, local.CodeSize(), len(local.Blocks))
	}

	// Recompiling the same request is served from the shared cache.
	_, again := postCompile(t, ts.URL, CompileRequest{Source: testSource, Machine: isdl.ExampleArchISDL})
	if again.Assembly != resp.Assembly {
		t.Error("second compile not byte-identical to first")
	}
	if again.CacheHits == 0 {
		t.Error("second compile reported no cache hits")
	}
}

func TestCompileErrorsAreInBand(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name string
		req  CompileRequest
		want string
	}{
		{"bad machine", CompileRequest{Source: "x = 1;", Machine: "machine ???"}, "machine:"},
		{"bad source", CompileRequest{Source: "x = ;", Machine: isdl.ExampleArchISDL}, ""},
		{"bad preset", CompileRequest{Source: "x = 1;", Machine: isdl.ExampleArchISDL, Preset: "turbo"}, "unknown preset"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			httpResp, resp := postCompile(t, ts.URL, tc.req)
			if httpResp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, want 200 with in-band error", httpResp.StatusCode)
			}
			if resp.Error == "" || !strings.Contains(resp.Error, tc.want) {
				t.Errorf("error = %q, want containing %q", resp.Error, tc.want)
			}
			if resp.Assembly != "" {
				t.Error("failed compile returned assembly")
			}
		})
	}
}

func TestMalformedRequestsAre400(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, body := range []string{"{not json", `{}`, `{"source":"x = 1;"}`} {
		resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /compile: status = %d, want 405", resp.StatusCode)
	}
}

// TestLoadSheddingAnd429 fills the worker pool and the queue by hand,
// then checks the next request is rejected with 429 + Retry-After.
func TestLoadSheddingAnd429(t *testing.T) {
	s, ts := testServer(t, Config{
		Options:    aviv.Options{Parallelism: 1},
		QueueLimit: 1,
		Timeout:    5 * time.Second,
	})
	// Occupy the only worker slot so compiles queue behind it.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	// One request fills the queue (it blocks waiting for the slot).
	queuedResp := make(chan int, 1)
	go func() {
		httpResp, _ := postCompile(t, ts.URL, CompileRequest{Source: "a = 1;", Machine: isdl.ExampleArchISDL})
		queuedResp <- httpResp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().Queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// A second, different request must be shed immediately.
	httpResp, _ := postCompile(t, ts.URL, CompileRequest{Source: "b = 2;", Machine: isdl.ExampleArchISDL})
	if httpResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", httpResp.StatusCode)
	}
	if httpResp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if s.Counters().Shed.Load() != 1 {
		t.Errorf("shed counter = %d, want 1", s.Counters().Shed.Load())
	}
	// Requests counts every POST, shed ones included: Shed / Requests
	// is the shed ratio.
	if got := s.Counters().Requests.Load(); got != 2 {
		t.Errorf("requests counter = %d, want 2 (the queued and the shed request)", got)
	}

	// Release the slot; the queued request completes normally.
	<-s.sem
	if code := <-queuedResp; code != http.StatusOK {
		t.Errorf("queued request finished with %d, want 200", code)
	}
	s.sem <- struct{}{} // restore for the deferred release
}

// TestRequestTimeout parks the worker pool so a request exceeds its
// deadline and is answered 504.
func TestRequestTimeout(t *testing.T) {
	s, ts := testServer(t, Config{
		Options: aviv.Options{Parallelism: 1},
		Timeout: 30 * time.Millisecond,
	})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	httpResp, _ := postCompile(t, ts.URL, CompileRequest{Source: "a = 1;", Machine: isdl.ExampleArchISDL})
	if httpResp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", httpResp.StatusCode)
	}
	if s.Counters().Timeouts.Load() == 0 {
		t.Error("timeout not counted")
	}
}

// TestConcurrentIdenticalRequestsDedup holds the single worker slot,
// fires identical requests so they pile onto one in-flight compile, and
// verifies the single-flight group answers all of them from one
// execution.
func TestConcurrentIdenticalRequestsDedup(t *testing.T) {
	const clients = 6
	s, ts := testServer(t, Config{
		Options:    aviv.Options{Parallelism: 1, Cache: cover.NewBoundedCache(0)},
		QueueLimit: clients,
		Timeout:    10 * time.Second,
	})
	s.sem <- struct{}{} // park the worker so requests accumulate

	req := CompileRequest{Source: testSource, Machine: isdl.ExampleArchISDL}
	var wg sync.WaitGroup
	assemblies := make([]string, clients)
	statuses := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			httpResp, resp := postCompile(t, ts.URL, req)
			statuses[i] = httpResp.StatusCode
			assemblies[i] = resp.Assembly
		}(i)
	}
	// All identical requests converge on one flight entry; wait until
	// every handler is parked on it, then release the worker.
	deadline := time.Now().Add(5 * time.Second)
	for s.flight.waiters.Load() < clients {
		if time.Now().After(deadline) {
			t.Fatal("requests never converged on the in-flight call")
		}
		time.Sleep(time.Millisecond)
	}
	<-s.sem
	wg.Wait()

	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, statuses[i])
		}
		if assemblies[i] != assemblies[0] {
			t.Fatalf("client %d: assembly differs", i)
		}
	}
	snap := s.Counters().Snapshot()
	if snap.Deduped == 0 {
		t.Error("no requests deduped despite identical concurrent load")
	}
	if snap.Completed == 0 {
		t.Error("no compile completed")
	}
	if snap.Deduped+snap.Completed < clients {
		t.Errorf("deduped (%d) + completed (%d) < clients (%d)", snap.Deduped, snap.Completed, clients)
	}
}

// TestRequestKeyNormalizes: requests that compile alike share a key,
// so they share a single flight and a cluster shard. Preset "" is
// "default" and every Unroll ≤ 1 is no unrolling, while "exhaustive"
// and a real unroll factor each change the key.
func TestRequestKeyNormalizes(t *testing.T) {
	key := func(preset string, unroll int) string {
		return RequestKey(CompileRequest{Source: multiBlockSource, Machine: "m", Preset: preset, Unroll: unroll})
	}
	cases := []struct {
		name  string
		a, b  string
		equal bool
	}{
		{`preset "" and "default"`, key("", 0), key("default", 0), true},
		{"unroll 0 and 1", key("", 0), key("", 1), true},
		{"unroll 0 and -3", key("", 0), key("", -3), true},
		{"unroll 1 and -3", key("default", 1), key("default", -3), true},
		{`preset "exhaustive"`, key("", 0), key("exhaustive", 0), false},
		{"unroll 2", key("", 0), key("", 2), false},
	}
	for _, c := range cases {
		if got := c.a == c.b; got != c.equal {
			t.Errorf("%s: keys equal = %v, want %v", c.name, got, c.equal)
		}
	}
}

func TestStatsAndHealthz(t *testing.T) {
	cache := cover.NewBoundedCache(64)
	s, ts := testServer(t, Config{Options: aviv.Options{Cache: cache}})
	postCompile(t, ts.URL, CompileRequest{Source: testSource, Machine: isdl.ExampleArchISDL})

	httpResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&stats); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	if stats.Server.Requests != 1 || stats.Server.Completed != 1 {
		t.Errorf("stats = %+v, want 1 request / 1 completed", stats.Server)
	}
	if stats.Server.MachinesInterned != 1 {
		t.Errorf("machines interned = %d, want 1", stats.Server.MachinesInterned)
	}
	if stats.MemCache == nil || stats.MemCache.Entries == 0 {
		t.Error("mem cache stats missing or empty after a compile")
	}
	if s.Workers() < 1 {
		t.Errorf("workers = %d, want >= 1", s.Workers())
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", hz.StatusCode)
	}
}

// TestMachineInterningSharesPointers proves distinct requests with the
// same machine text share one parsed machine, which is what lets the
// compile cache memoize the machine fingerprint per pointer.
func TestMachineInterningSharesPointers(t *testing.T) {
	s, ts := testServer(t, Config{Options: aviv.Options{Cache: cover.NewBoundedCache(0)}})
	for i := 0; i < 3; i++ {
		src := fmt.Sprintf("x = %d; y = x * 2;", i+1)
		httpResp, resp := postCompile(t, ts.URL, CompileRequest{Source: src, Machine: isdl.ExampleArchISDL})
		if httpResp.StatusCode != http.StatusOK || resp.Error != "" {
			t.Fatalf("request %d failed: %d %s", i, httpResp.StatusCode, resp.Error)
		}
	}
	if got := s.Counters().MachinesInterned.Load(); got != 1 {
		t.Errorf("machines interned = %d, want 1 across 3 requests", got)
	}
}

// TestDeltaServerStitchesAndReportsStats drives the incremental server
// path end to end: the first compile of a source recompiles every block,
// a repeat reuses them from the memory tier, the response reports
// per-request reuse counts, and /stats carries the "delta" section with
// the per-tier block counters.
func TestDeltaServerStitchesAndReportsStats(t *testing.T) {
	_, ts := testServer(t, Config{Options: aviv.Options{Cache: cover.NewBoundedCache(64)}})

	_, first := postCompile(t, ts.URL, CompileRequest{Source: testSource, Machine: isdl.ExampleArchISDL})
	if first.Error != "" {
		t.Fatalf("first compile failed: %s", first.Error)
	}
	if first.RecompiledBlocks == 0 || first.StitchedBlocks != 0 {
		t.Fatalf("first compile: stitched %d, recompiled %d; want all recompiled",
			first.StitchedBlocks, first.RecompiledBlocks)
	}
	// A verify-enabled repeat is a different request but reuses every
	// block from the memory tier.
	_, second := postCompile(t, ts.URL, CompileRequest{Source: testSource, Machine: isdl.ExampleArchISDL, Verify: true})
	if second.Error != "" {
		t.Fatalf("second compile failed: %s", second.Error)
	}
	if second.Assembly != first.Assembly {
		t.Fatalf("stitched assembly differs from first compile:\n%s\nvs\n%s", second.Assembly, first.Assembly)
	}
	if second.StitchedBlocks != second.Blocks || second.RecompiledBlocks != 0 {
		t.Fatalf("second compile: stitched %d / recompiled %d of %d blocks, want all stitched",
			second.StitchedBlocks, second.RecompiledBlocks, second.Blocks)
	}

	httpResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var raw bytes.Buffer
	var stats StatsResponse
	if err := json.NewDecoder(io.TeeReader(httpResp.Body, &raw)).Decode(&stats); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	if stats.Delta == nil || stats.MemCache == nil {
		t.Fatalf("/stats lacks the delta or mem_cache section: %s", raw.String())
	}
	if stats.Delta.MemHits != int64(second.StitchedBlocks) || stats.Delta.Recompiled != int64(first.RecompiledBlocks) {
		t.Fatalf("delta stats %+v disagree with responses (stitched %d, recompiled %d)",
			stats.Delta, second.StitchedBlocks, first.RecompiledBlocks)
	}
	if stats.Delta.Stitched != int64(first.StitchedBlocks+second.StitchedBlocks) ||
		stats.Delta.Recompiled != int64(first.RecompiledBlocks+second.RecompiledBlocks) {
		t.Fatalf("delta stats %+v disagree with responses (stitched %d+%d, recompiled %d+%d)",
			stats.Delta, first.StitchedBlocks, second.StitchedBlocks, first.RecompiledBlocks, second.RecompiledBlocks)
	}
	// The JSON shape itself is the monitoring contract: block reuse is
	// reported once, in the delta section.
	for _, field := range []string{`"delta"`, `"mem_cache"`, `"stitched"`, `"recompiled"`, `"invalidations"`} {
		if !strings.Contains(raw.String(), field) {
			t.Fatalf("/stats JSON lacks %s: %s", field, raw.String())
		}
	}
	for _, field := range []string{`"blocks_stitched"`, `"blocks_recompiled"`, `"delta_invalidations"`} {
		if strings.Contains(raw.String(), field) {
			t.Fatalf("/stats JSON still carries %s outside the delta section: %s", field, raw.String())
		}
	}
}

// TestDiskOnlyServerReportsDelta runs a server with a persistent tier
// and no memory tier: /stats must still carry the delta section, and
// its block counts must agree with the responses.
func TestDiskOnlyServerReportsDelta(t *testing.T) {
	store := &countingStore{m: make(map[[sha256.Size]byte][]byte)}
	s, ts := testServer(t, Config{Options: aviv.Options{DiskCache: store}})
	req := CompileRequest{Source: multiBlockSource, Machine: isdl.ExampleArchFullISDL}
	compile := func() CompileResponse {
		t.Helper()
		httpResp, resp := postCompile(t, ts.URL, req)
		if httpResp.StatusCode != http.StatusOK || resp.Error != "" {
			t.Fatalf("compile: %d %s", httpResp.StatusCode, resp.Error)
		}
		return resp
	}
	cold, warm := compile(), compile()
	if warm.DiskHits != warm.Blocks || warm.Assembly != cold.Assembly {
		t.Fatalf("second compile: %d disk hits of %d blocks (same assembly: %v); want every block from disk",
			warm.DiskHits, warm.Blocks, warm.Assembly == cold.Assembly)
	}
	stats := s.Stats()
	d := stats.Delta
	if d == nil || stats.MemCache != nil {
		t.Fatalf("disk-only /stats: delta %v, mem_cache %v; want delta only", d, stats.MemCache)
	}
	if d.DiskHits != int64(cold.DiskHits+warm.DiskHits) ||
		d.Stitched != int64(cold.StitchedBlocks+warm.StitchedBlocks) ||
		d.Recompiled != int64(cold.RecompiledBlocks+warm.RecompiledBlocks) {
		t.Fatalf("delta stats %+v disagree with responses (disk hits %d+%d, stitched %d+%d, recompiled %d+%d)",
			d, cold.DiskHits, warm.DiskHits, cold.StitchedBlocks, warm.StitchedBlocks, cold.RecompiledBlocks, warm.RecompiledBlocks)
	}
	if d.Entries != 0 || d.Evictions != 0 {
		t.Fatalf("delta stats %+v report memory-tier entries without a memory tier", d)
	}
}

// countingStore is a map-backed cover.DeletableStore that counts its
// calls.
type countingStore struct {
	mu                  sync.Mutex
	m                   map[[sha256.Size]byte][]byte
	gets, puts, deletes int
}

func (s *countingStore) Get(key [sha256.Size]byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	data, ok := s.m[key]
	return data, ok
}

func (s *countingStore) Put(key [sha256.Size]byte, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = data
}

func (s *countingStore) Delete(key [sha256.Size]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deletes++
	delete(s.m, key)
}

// counts returns and resets the call counters.
func (s *countingStore) counts() (gets, puts, deletes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gets, puts, deletes = s.gets, s.puts, s.deletes
	s.gets, s.puts, s.deletes = 0, 0, 0
	return gets, puts, deletes
}

// TestServerWritesEachBlockOnce pins the single per-block cache behind
// the server: one key per block, one write per fresh block, no disk
// traffic on a memory hit, disk hits after a restart, and deletion-as-
// miss for an entry that no longer decodes.
func TestServerWritesEachBlockOnce(t *testing.T) {
	store := &countingStore{m: make(map[[sha256.Size]byte][]byte)}
	newServer := func() (*Server, *httptest.Server) {
		return testServer(t, Config{
			Options: aviv.Options{Cache: cover.NewBoundedCache(64), DiskCache: store},
			Delta:   true,
		})
	}
	req := CompileRequest{Source: multiBlockSource, Machine: isdl.ExampleArchFullISDL}
	compile := func(ts *httptest.Server) CompileResponse {
		t.Helper()
		httpResp, resp := postCompile(t, ts.URL, req)
		if httpResp.StatusCode != http.StatusOK || resp.Error != "" {
			t.Fatalf("compile: %d %s", httpResp.StatusCode, resp.Error)
		}
		return resp
	}

	s, ts := newServer()
	cold := compile(ts)
	n := cold.Blocks
	if n < 3 {
		t.Fatalf("workload has %d blocks, want several", n)
	}
	if gets, puts, _ := store.counts(); gets != n || puts != n {
		t.Fatalf("cold request: %d gets, %d puts; want %d each", gets, puts, n)
	}

	warm := compile(ts)
	if warm.Assembly != cold.Assembly {
		t.Fatal("warm response differs from cold")
	}
	if gets, puts, _ := store.counts(); gets != 0 || puts != 0 || warm.CacheHits != n {
		t.Fatalf("warm request: %d gets, %d puts, %d memory hits; want 0, 0, %d", gets, puts, warm.CacheHits, n)
	}
	if d := s.Stats().Delta; d.MemHits != int64(n) || d.Recompiled != int64(n) || d.DiskMisses != int64(n) {
		t.Fatalf("delta stats %+v, want %d memory hits, recompiles and disk misses", d, n)
	}

	_, restarted := newServer()
	fromDisk := compile(restarted)
	if fromDisk.Assembly != cold.Assembly {
		t.Fatal("restarted response differs from cold")
	}
	if _, puts, _ := store.counts(); fromDisk.DiskHits != n || puts != 0 {
		t.Fatalf("restarted request: %d disk hits, %d puts; want %d, 0", fromDisk.DiskHits, puts, n)
	}

	store.mu.Lock()
	for k := range store.m {
		store.m[k] = []byte("not a covering")
		break
	}
	store.mu.Unlock()
	s, bad := newServer()
	repaired := compile(bad)
	if repaired.Assembly != cold.Assembly {
		t.Fatal("response over an undecodable entry differs from cold")
	}
	if _, puts, deletes := store.counts(); deletes != 1 || puts != 1 || repaired.RecompiledBlocks != 1 {
		t.Fatalf("undecodable entry: %d deletes, %d puts, %d recompiled; want 1 each", deletes, puts, repaired.RecompiledBlocks)
	}
	if got := s.Stats().Delta.Invalidations; got != 1 {
		t.Fatalf("delta invalidations = %d, want 1", got)
	}
}

// TestRetryAfterJitter pins the 429 backoff hint's jitter: two shed
// requests must receive distinct Retry-After values, so a burst of
// rejected clients retries staggered instead of hammering the server
// again in lockstep one second later.
func TestRetryAfterJitter(t *testing.T) {
	s, ts := testServer(t, Config{
		Options:    aviv.Options{Parallelism: 1},
		QueueLimit: 1,
		Timeout:    5 * time.Second,
	})
	// Occupy the only worker slot so compiles queue behind it.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	// One request fills the queue (it blocks waiting for the slot).
	queuedResp := make(chan int, 1)
	go func() {
		httpResp, _ := postCompile(t, ts.URL, CompileRequest{Source: "a = 1;", Machine: isdl.ExampleArchISDL})
		queuedResp <- httpResp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().Queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	var hints []string
	for i := 0; i < 2; i++ {
		httpResp, _ := postCompile(t, ts.URL, CompileRequest{
			Source:  fmt.Sprintf("x = %d;", i),
			Machine: isdl.ExampleArchISDL,
		})
		if httpResp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d: status = %d, want 429", i, httpResp.StatusCode)
		}
		hint := httpResp.Header.Get("Retry-After")
		secs, err := strconv.Atoi(hint)
		if err != nil {
			t.Fatalf("request %d: Retry-After %q is not an integer: %v", i, hint, err)
		}
		if secs < 1 || secs > 4 {
			t.Fatalf("request %d: Retry-After = %d, want within [1, 4]", i, secs)
		}
		hints = append(hints, hint)
	}
	if hints[0] == hints[1] {
		t.Fatalf("both shed requests got Retry-After %q; want distinct hints", hints[0])
	}

	// Release the slot; the queued request completes normally.
	<-s.sem
	if code := <-queuedResp; code != http.StatusOK {
		t.Errorf("queued request finished with %d, want 200", code)
	}
	s.sem <- struct{}{} // restore for the deferred release
}

// TestMachineMapsStayBounded sends twice the interner's cap of distinct
// machine texts. The interner stays within its cap, and an evicted
// machine compiles byte-identically to its first response when it is
// sent again.
func TestMachineMapsStayBounded(t *testing.T) {
	s, ts := testServer(t, Config{Options: aviv.Options{Cache: cover.NewBoundedCache(0)}})
	machine := func(i int) string { return fmt.Sprintf("# variant %d\n%s", i, isdl.ExampleArchISDL) }
	compile := func(i int) string {
		t.Helper()
		httpResp, resp := postCompile(t, ts.URL, CompileRequest{Source: testSource, Machine: machine(i)})
		if httpResp.StatusCode != http.StatusOK || resp.Error != "" {
			t.Fatalf("machine %d: %d %s", i, httpResp.StatusCode, resp.Error)
		}
		return resp.Assembly
	}
	n := 2 * maxInternedMachines
	first := compile(0)
	for i := 1; i < n; i++ {
		compile(i)
		if got := s.machines.byText.Stats().Len; got > maxInternedMachines {
			t.Fatalf("after %d machines the interner holds %d texts, cap %d", i+1, got, maxInternedMachines)
		}
	}
	if got := s.Counters().MachinesInterned.Load(); got != int64(n) {
		t.Fatalf("machines interned = %d, want %d", got, n)
	}
	if s.machines.byText.Stats().Len != maxInternedMachines {
		t.Fatal("the interner should be full: nothing was evicted")
	}
	if again := compile(0); again != first {
		t.Fatalf("evicted machine compiled differently:\nfirst:\n%s\nagain:\n%s", first, again)
	}
	if got := s.Counters().MachinesInterned.Load(); got != int64(n)+1 {
		t.Fatalf("machines interned = %d after re-sending an evicted text, want %d", got, n+1)
	}
}
