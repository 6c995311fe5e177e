package aviv_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cluster"
	"aviv/internal/cover"
	"aviv/internal/diskcache"
	"aviv/internal/isdl"
	"aviv/internal/metrics"
	"aviv/internal/server"
)

// spillStream is perfbench's disk_spill request stream, rebuilt from
// the same generator calls and parameters (perfbench is its own main
// module and cannot be imported): 8 programs of 25 blocks against a
// 64-entry memory tier, compiled once by all clients at once (fill),
// then once each in a seeded order (pass), then requested round after
// round in another seeded order (timed). Requests name programs by
// index into bodies.
type spillStream struct {
	bodies            [][]byte
	fill, pass, timed []int
	memEntries        int
}

func newSpillStream(seed int64, rounds int) *spillStream {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	s := &spillStream{memEntries: 64}
	seen := map[string]bool{}
	for len(s.fill) < 8 {
		src := bench.MultiBlockSource(rng.Int64N(1<<40), 25, 6)
		if seen[src] {
			continue
		}
		seen[src] = true
		body, err := json.Marshal(server.CompileRequest{Source: src, Machine: isdl.ExampleArchFullISDL, Unroll: 1, Preset: "default"})
		if err != nil {
			panic(err)
		}
		s.fill = append(s.fill, len(s.bodies))
		s.bodies = append(s.bodies, body)
	}
	permute := func(xs []int) []int {
		out := append([]int(nil), xs...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	}
	s.pass = permute(s.fill)
	order := permute(s.fill)
	for k := 0; k < rounds*len(order); k++ {
		s.timed = append(s.timed, order[k%len(order)])
	}
	return s
}

// routerNames name the three servers on the router's ring. The router
// dials them through namedTransport, so the ring places each request
// key on the same server in every run, whatever loopback ports the
// servers got.
var routerNames = []string{"http://node-0", "http://node-1", "http://node-2"}

// namedTransport dials routerNames[i] at urls[i].
func namedTransport(urls []string) *http.Transport {
	byHost := map[string]string{}
	for i, name := range routerNames {
		byHost[strings.TrimPrefix(name, "http://")+":80"] = strings.TrimPrefix(urls[i], "http://")
	}
	var d net.Dialer
	return &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			if real, ok := byHost[addr]; ok {
				addr = real
			}
			return d.DialContext(ctx, network, addr)
		},
	}
}

// sharedDirServers starts three plain servers whose disk tiers each
// open one shared directory, as three avivd processes given one
// -cache-dir do.
func sharedDirServers(t *testing.T, memEntries int) *cluster.LocalCluster {
	t.Helper()
	dir := t.TempDir()
	lc, err := cluster.StartLocal(cluster.LocalConfig{
		N: len(routerNames),
		NodeConfig: func(int) server.Config {
			disk, err := diskcache.Open(dir, 512<<20)
			if err != nil {
				t.Fatal(err)
			}
			return server.Config{Options: aviv.Options{Cache: cover.NewBoundedCache(memEntries), DiskCache: disk}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

func postBody(client *http.Client, url string, body []byte) (server.CompileResponse, error) {
	var resp server.CompileResponse
	httpResp, err := client.Post(url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return resp, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return resp, fmt.Errorf("HTTP %d", httpResp.StatusCode)
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return resp, err
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("compile: %s", resp.Error)
	}
	return resp, nil
}

// tierCounts are per-timed-request block counts summed over servers.
type tierCounts struct {
	fresh, disk, mem float64
}

// replay serves s through send with clients closed-loop clients — the
// fill, the pass, then the timed requests — and returns the timed
// requests' block counts and each program's assembly hash.
func replay(t *testing.T, s *spillStream, send func(body []byte) (server.CompileResponse, error), servers []*server.Server, clients int) (tierCounts, map[int][sha256.Size]byte) {
	t.Helper()
	var mu sync.Mutex
	hashes := map[int][sha256.Size]byte{}
	do := func(prog int) {
		resp, err := send(s.bodies[prog])
		if err != nil {
			t.Errorf("program %d: %v", prog, err)
			return
		}
		mu.Lock()
		hashes[prog] = sha256.Sum256([]byte(resp.Assembly))
		mu.Unlock()
	}
	closedLoop := func(list []int) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(list); i = int(next.Add(1)) - 1 {
					do(list[i])
				}
			}()
		}
		wg.Wait()
	}
	reuse := func() metrics.CacheStats {
		var sum metrics.CacheStats
		for _, srv := range servers {
			sum.Add(*srv.Stats().Delta)
		}
		return sum
	}

	closedLoop(s.fill)
	for _, prog := range s.pass {
		do(prog)
	}
	before := reuse()
	closedLoop(s.timed)
	after := reuse()
	n := float64(len(s.timed))
	return tierCounts{
		fresh: float64(after.Recompiled-before.Recompiled) / n,
		disk:  float64(after.DiskHits-before.DiskHits) / n,
		mem:   float64(after.MemHits-before.MemHits) / n,
	}, hashes
}

// TestRouterShardsMemoryTiers pins what the router earns in front of
// servers that share one disk directory: on a disk_spill-shaped stream
// (seed 1, a few rounds, 2 clients), whose working set is about 3x one
// server's memory tier, routing each program to its owner keeps a
// server's share small enough to hit memory, while round-robin sends
// every program to every server and reads its blocks from disk. Both
// cover the same number of blocks fresh (the shared directory holds
// every block either way) and serve the same bytes.
//
// It is what is left of TestClusterWorkStudy, which compared this
// setup with cluster nodes that peered cache entries and forwarded
// requests between per-node stores, and found they saved no work
// (DESIGN.md §14).
func TestRouterShardsMemoryTiers(t *testing.T) {
	const clients = 2
	s := newSpillStream(1, 4)
	client := &http.Client{Timeout: time.Minute}

	lc := sharedDirServers(t, s.memEntries)
	tr := namedTransport(lc.URLs)
	defer tr.CloseIdleConnections()
	rt := cluster.NewRouter(cluster.RouterConfig{Nodes: routerNames, ProbeInterval: time.Hour, Transport: tr})
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	routed, routedHashes := replay(t, s, func(body []byte) (server.CompileResponse, error) {
		return postBody(client, front.URL, body)
	}, lc.Servers, clients)

	rr := sharedDirServers(t, s.memEntries)
	var next atomic.Int64
	roundRobin, rrHashes := replay(t, s, func(body []byte) (server.CompileResponse, error) {
		return postBody(client, rr.URLs[int(next.Add(1)-1)%len(rr.URLs)], body)
	}, rr.Servers, clients)

	t.Logf("per timed request: routed fresh %.2f disk %.2f mem %.2f; round-robin fresh %.2f disk %.2f mem %.2f",
		routed.fresh, routed.disk, routed.mem, roundRobin.fresh, roundRobin.disk, roundRobin.mem)
	if routed.fresh != roundRobin.fresh {
		t.Errorf("fresh coverings per request: routed %.2f, round-robin %.2f; want equal", routed.fresh, roundRobin.fresh)
	}
	if routed.disk >= roundRobin.disk {
		t.Errorf("disk reads per request: routed %.2f, round-robin %.2f; want routed fewer", routed.disk, roundRobin.disk)
	}
	if fmt.Sprint(routedHashes) != fmt.Sprint(rrHashes) {
		t.Error("routed and round-robin servers served different assembly")
	}
}
