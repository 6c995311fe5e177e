package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/diskcache"
	"aviv/internal/isdl"
	"aviv/internal/server"
)

// testCluster starts an N-server loopback cluster behind a router, the
// servers sharing one disk directory, with reactive-only health
// (probes effectively off) so failure handling in tests is
// deterministic: a node is ejected by the first failed forward, never
// by a racing probe. It returns the router's URL.
func testCluster(t *testing.T, n int, mut func(*LocalConfig)) (*LocalCluster, string) {
	t.Helper()
	dir := t.TempDir()
	cfg := LocalConfig{
		N: n,
		NodeConfig: func(i int) server.Config {
			disk, err := diskcache.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			return server.Config{
				Options:    aviv.Options{Cache: cover.NewBoundedCache(256), DiskCache: disk, Parallelism: 1},
				QueueLimit: 64,
				Timeout:    30 * time.Second,
			}
		},
		ProbeInterval: time.Hour,
	}
	if mut != nil {
		mut(&cfg)
	}
	lc, err := StartLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	routerURL, err := lc.StartRouter()
	if err != nil {
		t.Fatal(err)
	}
	return lc, routerURL
}

// pickOwned finds a compile request (source text from form, one %d
// verb) whose content key the given node owns. Node URLs carry random
// ports, so ownership must be discovered at runtime.
func pickOwned(t *testing.T, lc *LocalCluster, ownerIdx int, form string) server.CompileRequest {
	t.Helper()
	ring := NewRing(lc.URLs)
	for i := 0; i < 4096; i++ {
		req := server.CompileRequest{Source: fmt.Sprintf(form, i), Machine: isdl.ExampleArchISDL}
		if ring.Owner(server.RequestKey(req), nil) == lc.URLs[ownerIdx] {
			return req
		}
	}
	t.Fatalf("no request matching %q owned by node %d in 4096 tries", form, ownerIdx)
	return server.CompileRequest{}
}

// parkWorker sends a large multi-block compile straight to node i and
// returns once it holds the node's single worker; the compile's HTTP
// status arrives on the returned channel.
func parkWorker(t *testing.T, lc *LocalCluster, i int) <-chan int {
	t.Helper()
	slow := server.CompileRequest{
		Source:  bench.MultiBlockSource(1, 30, 10),
		Machine: isdl.ExampleArchFullISDL,
	}
	done := make(chan int, 1)
	go func() {
		status, _ := postCompile(t, lc.URLs[i], slow)
		done <- status
	}()
	deadline := time.Now().Add(10 * time.Second)
	for lc.Servers[i].Counters().Inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow compile never started")
		}
		time.Sleep(time.Millisecond)
	}
	return done
}

func postCompile(t *testing.T, url string, req server.CompileRequest) (int, server.CompileResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return 0, server.CompileResponse{}
	}
	httpResp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, server.CompileResponse{}
	}
	defer httpResp.Body.Close()
	var resp server.CompileResponse
	if httpResp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Error(err)
		}
	}
	return httpResp.StatusCode, resp
}

// localAssembly compiles req locally (no server, no cluster) — the
// byte-identity reference every cluster answer must match.
func localAssembly(t *testing.T, req server.CompileRequest) string {
	t.Helper()
	m, err := isdl.Parse(req.Machine)
	if err != nil {
		t.Fatal(err)
	}
	res, err := aviv.CompileSource(req.Source, m, max(req.Unroll, 1), aviv.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res.Program.String()
}

// TestForwardingByteIdentity sends, through the router, one request
// owned by each node: every answer must be byte-identical to a local
// compile, and each request must have reached its owner and no other
// server.
func TestForwardingByteIdentity(t *testing.T) {
	lc, routerURL := testCluster(t, 3, nil)
	for owner := range lc.URLs {
		req := pickOwned(t, lc, owner, "x = 1 + %d;")
		status, resp := postCompile(t, routerURL, req)
		if status != http.StatusOK || resp.Error != "" {
			t.Fatalf("owner %d: status %d, error %q", owner, status, resp.Error)
		}
		if want := localAssembly(t, req); resp.Assembly != want {
			t.Fatalf("owner %d: routed assembly differs from local compile:\n%s\nwant:\n%s", owner, resp.Assembly, want)
		}
	}
	for i, srv := range lc.Servers {
		if got := srv.Counters().Requests.Load(); got != 1 {
			t.Errorf("server %d saw %d requests, want its own 1", i, got)
		}
	}
}

// TestSingleFlightAcrossForward pins the cluster-wide dedup contract:
// identical concurrent requests sent through the router collapse into
// one compile on the owning server. The owner's single worker is
// parked with a slow compile so the identical requests demonstrably
// overlap.
func TestSingleFlightAcrossForward(t *testing.T) {
	lc, routerURL := testCluster(t, 2, nil)
	req := pickOwned(t, lc, 1, "y = 2 * %d;")
	slowDone := parkWorker(t, lc, 1)

	var wg sync.WaitGroup
	results := make(chan string, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, resp := postCompile(t, routerURL, req)
			if status == http.StatusOK && resp.Error == "" {
				results <- resp.Assembly
			} else {
				results <- fmt.Sprintf("status %d error %q", status, resp.Error)
			}
		}()
	}
	wg.Wait()
	close(results)

	want := localAssembly(t, req)
	for got := range results {
		if got != want {
			t.Fatalf("cluster answer differs from local compile:\n%s", got)
		}
	}
	if status := <-slowDone; status != http.StatusOK {
		t.Fatalf("slow compile status %d", status)
	}
	c0, c1 := lc.Servers[0].Counters(), lc.Servers[1].Counters()
	if got := c0.Requests.Load(); got != 0 {
		t.Errorf("non-owner requests = %d, want 0", got)
	}
	if got := c1.Deduped.Load(); got != 5 {
		t.Errorf("owner deduped = %d, want 5", got)
	}
	// The owner executed exactly two compiles: the slow one and req.
	if got := c1.Completed.Load(); got != 2 {
		t.Errorf("owner completed = %d, want 2 (slow + one deduped compile)", got)
	}
}

// TestProbeRecovery pins the recovery path: an ejected node is
// restored by the router's next successful health probe.
func TestProbeRecovery(t *testing.T) {
	lc, _ := testCluster(t, 2, func(cfg *LocalConfig) { cfg.ProbeInterval = 20 * time.Millisecond })
	health := lc.Router().health
	health.markFailure(lc.URLs[1])
	if health.healthy(lc.URLs[1]) {
		t.Fatal("markFailure did not eject the node")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !health.healthy(lc.URLs[1]) {
		if time.Now().After(deadline) {
			t.Fatal("probe never restored the healthy node")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterRoutesToOwnerAndFailsOver pins the router: the request
// lands on the owning server, and a dead owner fails over to a
// survivor without surfacing an error.
func TestRouterRoutesToOwnerAndFailsOver(t *testing.T) {
	lc, routerURL := testCluster(t, 2, nil)
	req := pickOwned(t, lc, 1, "r = %d * 3;")

	status, resp := postCompile(t, routerURL, req)
	if status != http.StatusOK || resp.Error != "" {
		t.Fatalf("status %d, error %q", status, resp.Error)
	}
	want := localAssembly(t, req)
	if resp.Assembly != want {
		t.Fatal("routed assembly differs from local compile")
	}
	if got := lc.Servers[0].Counters().Requests.Load(); got != 0 {
		t.Errorf("non-owner requests = %d, want 0", got)
	}
	if got := lc.Servers[1].Counters().Requests.Load(); got != 1 {
		t.Errorf("owner requests = %d, want 1", got)
	}

	lc.KillNode(1)
	status, resp = postCompile(t, routerURL, req)
	if status != http.StatusOK || resp.Assembly != want {
		t.Fatalf("failover: status %d", status)
	}
	if got := lc.Servers[0].Counters().Requests.Load(); got != 1 {
		t.Errorf("survivor requests = %d, want 1", got)
	}
	if lc.Router().health.healthy(lc.URLs[1]) {
		t.Error("dead node still marked healthy after a failed forward")
	}
}

// TestAbandonmentPropagatesAcrossHop pins waiter-counted abandonment
// across the router hop: when a client gives up at the router, the
// forward's context cancels, the owner's handler context cancels with
// it, and the owner's flight abandons the queued compile instead of
// running it for nobody. The client's departure is not a node failure:
// the owner stays in the ring.
func TestAbandonmentPropagatesAcrossHop(t *testing.T) {
	lc, routerURL := testCluster(t, 2, nil)
	req := pickOwned(t, lc, 1, "a = %d + 7;")
	slowDone := parkWorker(t, lc, 1)

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, routerURL+"/compile", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(httpReq); err == nil {
		resp.Body.Close()
		t.Fatalf("request answered %d while the owner's worker was parked", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for lc.Servers[1].Counters().Abandoned.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("owner never abandoned the orphaned flight")
		}
		time.Sleep(time.Millisecond)
	}
	if !lc.Router().health.healthy(lc.URLs[1]) {
		t.Error("owner ejected because the client gave up")
	}
	if status := <-slowDone; status != http.StatusOK {
		t.Fatalf("slow compile status %d", status)
	}
}
