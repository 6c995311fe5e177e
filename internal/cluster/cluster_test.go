package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/diskcache"
	"aviv/internal/isdl"
	"aviv/internal/server"
)

// testCluster starts an N-node loopback cluster with reactive-only
// health (probes effectively off) so failure handling in tests is
// deterministic: a peer is ejected by the first failed RPC, never by a
// racing probe.
func testCluster(t *testing.T, n int, mut func(*LocalConfig)) *LocalCluster {
	t.Helper()
	cfg := LocalConfig{
		N: n,
		NodeConfig: func(i int) server.Config {
			return server.Config{
				Options:    aviv.Options{Parallelism: 1},
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
	return lc
}

// pickOwned finds a compile request (source text from form, one %d
// verb) whose content key the given node owns. Node URLs carry random
// ports, so ownership must be discovered at runtime.
func pickOwned(t *testing.T, lc *LocalCluster, ownerIdx int, form string) server.CompileRequest {
	t.Helper()
	for i := 0; i < 4096; i++ {
		req := server.CompileRequest{Source: fmt.Sprintf(form, i), Machine: isdl.ExampleArchISDL}
		if lc.Nodes[0].ring.Owner(server.RequestKey(req), nil) == lc.URLs[ownerIdx] {
			return req
		}
	}
	t.Fatalf("no request matching %q owned by node %d in 4096 tries", form, ownerIdx)
	return server.CompileRequest{}
}

// pickOwnedSlow finds a large multi-block request owned by the given
// node — slow enough to park that node's single worker for a while.
func pickOwnedSlow(t *testing.T, lc *LocalCluster, ownerIdx int) server.CompileRequest {
	t.Helper()
	for seed := int64(1); seed < 256; seed++ {
		req := server.CompileRequest{
			Source:  bench.MultiBlockSource(seed, 30, 10),
			Machine: isdl.ExampleArchFullISDL,
		}
		if lc.Nodes[0].ring.Owner(server.RequestKey(req), nil) == lc.URLs[ownerIdx] {
			return req
		}
	}
	t.Fatalf("no slow request owned by node %d in 256 seeds", ownerIdx)
	return server.CompileRequest{}
}

// pickOwnedEntryKey finds a cache-entry key the given node owns.
func pickOwnedEntryKey(t *testing.T, lc *LocalCluster, ownerIdx int) [sha256.Size]byte {
	t.Helper()
	var key [sha256.Size]byte
	for i := uint64(0); i < 65536; i++ {
		binary.BigEndian.PutUint64(key[:8], i)
		hexKey := fmt.Sprintf("%x", key)
		if lc.Nodes[0].ring.Owner(hexKey, nil) == lc.URLs[ownerIdx] {
			return key
		}
	}
	t.Fatalf("no entry key owned by node %d in 65536 tries", ownerIdx)
	return key
}

func postCompile(t *testing.T, url string, req server.CompileRequest) (int, server.CompileResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var resp server.CompileResponse
	if httpResp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatal(err)
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
	unroll := req.Unroll
	if unroll < 1 {
		unroll = 1
	}
	res, err := aviv.CompileSource(req.Source, m, unroll, aviv.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res.Program.String()
}

// TestForwardingByteIdentity sends a request to the node that does NOT
// own it: the compile must be forwarded to the owner and the answer
// must be byte-identical to a local compile.
func TestForwardingByteIdentity(t *testing.T) {
	lc := testCluster(t, 2, nil)
	req := pickOwned(t, lc, 1, "x = 1 + %d;")

	status, resp := postCompile(t, lc.URLs[0], req)
	if status != http.StatusOK || resp.Error != "" {
		t.Fatalf("status %d, error %q", status, resp.Error)
	}
	if want := localAssembly(t, req); resp.Assembly != want {
		t.Fatalf("forwarded assembly differs from local compile:\n%s\nwant:\n%s", resp.Assembly, want)
	}
	if got := lc.Nodes[0].Server().Counters().Forwarded.Load(); got != 1 {
		t.Errorf("node0 forwarded = %d, want 1", got)
	}
	// The owner served it locally (no second hop).
	if got := lc.Nodes[1].Server().Counters().Forwarded.Load(); got != 0 {
		t.Errorf("node1 forwarded = %d, want 0", got)
	}
}

// TestSingleFlightAcrossForward pins the cluster-wide dedup contract:
// identical requests hitting BOTH nodes concurrently collapse into one
// compile on the owning shard. The owner's single worker is parked
// with a slow compile so the identical requests demonstrably overlap.
func TestSingleFlightAcrossForward(t *testing.T) {
	lc := testCluster(t, 2, nil)
	slow := pickOwnedSlow(t, lc, 1)
	req := pickOwned(t, lc, 1, "y = 2 * %d;")

	// Park node1's worker.
	slowDone := make(chan int, 1)
	go func() {
		status, _ := postCompile(t, lc.URLs[1], slow)
		slowDone <- status
	}()
	deadline := time.Now().Add(10 * time.Second)
	for lc.Nodes[1].Server().Counters().Inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow compile never started")
		}
		time.Sleep(time.Millisecond)
	}

	// 3 identical requests at each node, all while the worker is busy.
	var wg sync.WaitGroup
	results := make(chan string, 6)
	for _, url := range []string{lc.URLs[0], lc.URLs[1]} {
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				status, resp := postCompile(t, url, req)
				if status == http.StatusOK && resp.Error == "" {
					results <- resp.Assembly
				} else {
					results <- fmt.Sprintf("status %d error %q", status, resp.Error)
				}
			}(url)
		}
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

	c0, c1 := lc.Nodes[0].Server().Counters(), lc.Nodes[1].Server().Counters()
	// node0: 3 waiters merged into 1 forward.
	if got := c0.Forwarded.Load(); got != 1 {
		t.Errorf("node0 forwarded = %d, want 1", got)
	}
	if got := c0.Deduped.Load(); got != 2 {
		t.Errorf("node0 deduped = %d, want 2", got)
	}
	// node1: 3 local + 1 forwarded merged into 1 execution.
	if got := c1.Deduped.Load(); got != 3 {
		t.Errorf("node1 deduped = %d, want 3", got)
	}
	// node1 executed exactly two compiles: the slow one and req.
	if got := c1.Completed.Load(); got != 2 {
		t.Errorf("node1 completed = %d, want 2 (slow + one deduped compile)", got)
	}
}

// TestPeerEntryFetchAndAdopt pins the cache-peering happy path: a
// local miss on a peer-owned key fetches the entry from the owner in
// checksummed framing and adopts it locally.
func TestPeerEntryFetchAndAdopt(t *testing.T) {
	lc := testCluster(t, 2, nil)
	key := pickOwnedEntryKey(t, lc, 1)
	payload := []byte("covering artifact bytes")
	lc.Nodes[1].local.Put(key, payload)

	store := &peerStore{n: lc.Nodes[0], local: lc.Nodes[0].local}
	got, ok := store.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("peer fetch = %q, %v; want payload, true", got, ok)
	}
	if got := lc.Nodes[0].Server().Counters().PeerHits.Load(); got != 1 {
		t.Errorf("peer_hits = %d, want 1", got)
	}
	// Adopted: the second Get is local, no new peer traffic.
	if _, ok := lc.Nodes[0].local.Get(key); !ok {
		t.Error("fetched entry was not adopted into the local store")
	}
}

// entryCorruptingTransport flips or truncates bytes of /peer/entry GET
// responses, simulating wire corruption between nodes.
type entryCorruptingTransport struct {
	mode string // "flip" or "truncate"
}

func (tr *entryCorruptingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.URL.Path != "/peer/entry" || req.Method != http.MethodGet || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	switch tr.mode {
	case "flip":
		body[len(body)/2] ^= 0x40
	case "truncate":
		body = body[:len(body)-7]
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header.Del("Content-Length")
	return resp, nil
}

// TestPeerEntryCorruptionDegradesToMiss pins the transfer-integrity
// contract: a corrupt or truncated peer transfer is rejected by the
// sha256 framing and recorded as a miss — the compiler then recompiles
// locally, so corruption can never change served bytes.
func TestPeerEntryCorruptionDegradesToMiss(t *testing.T) {
	for _, mode := range []string{"flip", "truncate"} {
		t.Run(mode, func(t *testing.T) {
			tr := &entryCorruptingTransport{mode: mode}
			lc := testCluster(t, 2, func(cfg *LocalConfig) { cfg.Transport = tr })
			key := pickOwnedEntryKey(t, lc, 1)
			lc.Nodes[1].local.Put(key, []byte("covering artifact bytes"))

			store := &peerStore{n: lc.Nodes[0], local: lc.Nodes[0].local}
			if data, ok := store.Get(key); ok {
				t.Fatalf("corrupt transfer served as hit: %q", data)
			}
			if got := lc.Nodes[0].Server().Counters().PeerMisses.Load(); got != 1 {
				t.Errorf("peer_misses = %d, want 1", got)
			}
			if got := lc.Nodes[0].Server().Counters().PeerHits.Load(); got != 0 {
				t.Errorf("peer_hits = %d, want 0", got)
			}
			if _, ok := lc.Nodes[0].local.Get(key); ok {
				t.Error("corrupt entry was adopted into the local store")
			}
		})
	}
}

// TestPeerEntryWriteThrough pins write-through replication: a Put on a
// peer-owned key lands on the owning node too.
func TestPeerEntryWriteThrough(t *testing.T) {
	lc := testCluster(t, 2, nil)
	key := pickOwnedEntryKey(t, lc, 1)
	payload := []byte("fresh artifact")

	store := &peerStore{n: lc.Nodes[0], local: lc.Nodes[0].local}
	store.Put(key, payload)

	if got, ok := lc.Nodes[1].local.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("owner copy = %q, %v; want payload, true", got, ok)
	}
	if got := lc.Nodes[0].peerPushes.Load(); got != 1 {
		t.Errorf("peer_pushes = %d, want 1", got)
	}
}

// TestPeerEntryRejectsCorruptPush pins the receiving side: a pushed
// entry whose framing fails verification is rejected with 400 and
// never stored.
func TestPeerEntryRejectsCorruptPush(t *testing.T) {
	lc := testCluster(t, 1, nil)
	key := pickOwnedEntryKey(t, lc, 0)
	url := fmt.Sprintf("%s/peer/entry?key=%x", lc.URLs[0], key)

	frame := diskcache.EncodeEntry([]byte("payload"))
	frame[len(frame)-2] ^= 0x01
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt push status = %d, want 400", resp.StatusCode)
	}
	if got := lc.Nodes[0].peerRejects.Load(); got != 1 {
		t.Errorf("peer_rejects = %d, want 1", got)
	}
	if _, ok := lc.Nodes[0].local.Get(key); ok {
		t.Error("corrupt push was stored")
	}
}

// TestKillNodeFallsBackLocal pins availability: when a key's owner is
// dead, the receiving node compiles locally (byte-identically), counts
// the failure, and ejects the peer so later requests skip the corpse.
func TestKillNodeFallsBackLocal(t *testing.T) {
	lc := testCluster(t, 3, nil)
	req := pickOwned(t, lc, 2, "z = %d - 1;")
	lc.KillNode(2)

	status, resp := postCompile(t, lc.URLs[0], req)
	if status != http.StatusOK || resp.Error != "" {
		t.Fatalf("status %d, error %q", status, resp.Error)
	}
	if want := localAssembly(t, req); resp.Assembly != want {
		t.Fatal("fallback assembly differs from local compile")
	}
	c0 := lc.Nodes[0].Server().Counters()
	if got := c0.ForwardErrors.Load(); got != 1 {
		t.Errorf("forward_errors = %d, want 1", got)
	}
	if got := c0.LocalFallbacks.Load(); got != 1 {
		t.Errorf("local_fallbacks = %d, want 1", got)
	}
	if lc.Nodes[0].health.healthy(lc.URLs[2]) {
		t.Error("dead node still marked healthy after failed forward")
	}

	// Second identical request: the dead owner is ejected, so the key
	// re-disperses deterministically to a healthy node — no second
	// connection error.
	status, resp2 := postCompile(t, lc.URLs[0], req)
	if status != http.StatusOK || resp2.Assembly != resp.Assembly {
		t.Fatalf("re-dispersed request: status %d", status)
	}
	if got := c0.ForwardErrors.Load(); got != 1 {
		t.Errorf("forward_errors after ejection = %d, want still 1", got)
	}
}

// TestProbeRecovery pins the recovery path: an ejected peer is
// restored by the next successful health probe.
func TestProbeRecovery(t *testing.T) {
	lc := testCluster(t, 2, func(cfg *LocalConfig) { cfg.ProbeInterval = 20 * time.Millisecond })
	lc.Nodes[0].health.markFailure(lc.URLs[1])
	if lc.Nodes[0].health.healthy(lc.URLs[1]) {
		t.Fatal("markFailure did not eject the peer")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !lc.Nodes[0].health.healthy(lc.URLs[1]) {
		if time.Now().After(deadline) {
			t.Fatal("probe never restored the healthy peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainBleedsEntries pins graceful drain: /healthz flips to 503
// (so probes eject the node) and every locally held entry is re-homed
// to its post-drain owner before shutdown.
func TestDrainBleedsEntries(t *testing.T) {
	lc := testCluster(t, 2, nil)
	var keys [][sha256.Size]byte
	for i := 0; i < 5; i++ {
		var key [sha256.Size]byte
		key[31] = byte(i + 1)
		keys = append(keys, key)
		lc.Nodes[0].local.Put(key, []byte(fmt.Sprintf("entry-%d", i)))
	}

	moved := lc.Nodes[0].Drain()
	if moved != len(keys) {
		t.Fatalf("drain moved %d entries, want %d", moved, len(keys))
	}
	for i, key := range keys {
		if got, ok := lc.Nodes[1].local.Get(key); !ok || string(got) != fmt.Sprintf("entry-%d", i) {
			t.Errorf("entry %d not re-homed to the survivor", i)
		}
	}
	if got := lc.Nodes[0].Server().Counters().Drained.Load(); got != int64(len(keys)) {
		t.Errorf("drained counter = %d, want %d", got, len(keys))
	}
	resp, err := http.Get(lc.URLs[0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz = %d, want 503", resp.StatusCode)
	}
}

// TestRouterRoutesToOwnerAndFailsOver pins the thin-router mode: the
// first hop lands on the owning node (so node-side forwarding stays
// the exception), and a dead owner fails over to a survivor without
// surfacing an error.
func TestRouterRoutesToOwnerAndFailsOver(t *testing.T) {
	lc := testCluster(t, 2, nil)
	routerURL, err := lc.StartRouter()
	if err != nil {
		t.Fatal(err)
	}
	req := pickOwned(t, lc, 1, "r = %d * 3;")

	status, resp := postCompile(t, routerURL, req)
	if status != http.StatusOK || resp.Error != "" {
		t.Fatalf("status %d, error %q", status, resp.Error)
	}
	want := localAssembly(t, req)
	if resp.Assembly != want {
		t.Fatal("routed assembly differs from local compile")
	}
	// The router hit the owner directly: nobody forwarded.
	if got := lc.Nodes[0].Server().Counters().Requests.Load(); got != 0 {
		t.Errorf("non-owner requests = %d, want 0", got)
	}
	if got := lc.Nodes[1].Server().Counters().Requests.Load(); got != 1 {
		t.Errorf("owner requests = %d, want 1", got)
	}

	lc.KillNode(1)
	status, resp = postCompile(t, routerURL, req)
	if status != http.StatusOK || resp.Assembly != want {
		t.Fatalf("failover: status %d", status)
	}
	if got := lc.Nodes[0].Server().Counters().Requests.Load(); got != 1 {
		t.Errorf("survivor requests = %d, want 1", got)
	}
}

// TestStatsClusterSection pins that a cluster node's /stats grows the
// "cluster" section next to the standalone sections.
func TestStatsClusterSection(t *testing.T) {
	lc := testCluster(t, 2, nil)
	resp, err := http.Get(lc.URLs[0] + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Server  map[string]any `json:"server"`
		Cluster map[string]any `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Server == nil {
		t.Fatal("/stats lacks the server section")
	}
	if stats.Cluster == nil {
		t.Fatal("/stats lacks the cluster section")
	}
	if got := stats.Cluster["self"]; got != lc.URLs[0] {
		t.Errorf("cluster.self = %v, want %s", got, lc.URLs[0])
	}
	if got := stats.Cluster["nodes"]; got != float64(2) {
		t.Errorf("cluster.nodes = %v, want 2", got)
	}
	for _, field := range []string{"healthy", "forwarded", "local_fallbacks", "peer_hits", "peer_misses", "forward_errors", "drained"} {
		if _, ok := stats.Cluster[field]; !ok {
			t.Errorf("cluster section lacks %q", field)
		}
	}
}

// TestAbandonmentPropagatesAcrossHop pins PR 8's waiter-counted
// abandonment across the forwarding hop: when the forwarding node's
// client gives up, the RPC context cancels, the owner's handler
// context cancels with it, and the owner's flight abandons the queued
// compile instead of running it for nobody.
func TestAbandonmentPropagatesAcrossHop(t *testing.T) {
	lc := testCluster(t, 2, func(cfg *LocalConfig) {
		base := cfg.NodeConfig
		cfg.NodeConfig = func(i int) server.Config {
			scfg := base(i)
			if i == 0 {
				scfg.Timeout = 150 * time.Millisecond
			}
			return scfg
		}
	})
	slow := pickOwnedSlow(t, lc, 1)
	req := pickOwned(t, lc, 1, "a = %d + 7;")

	// Park node1's worker so the forwarded compile queues there.
	slowDone := make(chan int, 1)
	go func() {
		status, _ := postCompile(t, lc.URLs[1], slow)
		slowDone <- status
	}()
	deadline := time.Now().Add(10 * time.Second)
	for lc.Nodes[1].Server().Counters().Inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow compile never started")
		}
		time.Sleep(time.Millisecond)
	}

	// node0 forwards, then times out after 150ms -> 504; the owner
	// must abandon the queued flight.
	status, _ := postCompile(t, lc.URLs[0], req)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", status)
	}
	if got := lc.Nodes[0].Server().Counters().Timeouts.Load(); got != 1 {
		t.Errorf("node0 timeouts = %d, want 1", got)
	}
	deadline = time.Now().Add(5 * time.Second)
	for lc.Nodes[1].Server().Counters().Abandoned.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("owner never abandoned the orphaned flight")
		}
		time.Sleep(time.Millisecond)
	}
	// The caller's timeout is not a peer failure: node1 stays healthy.
	if !lc.Nodes[0].health.healthy(lc.URLs[1]) {
		t.Error("owner ejected because the caller timed out")
	}
	if status := <-slowDone; status != http.StatusOK {
		t.Fatalf("slow compile status %d", status)
	}
}
