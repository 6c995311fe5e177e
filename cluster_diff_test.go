package aviv_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cluster"
	"aviv/internal/cover"
	"aviv/internal/isdl"
	"aviv/internal/server"
)

// TestClusterDifferentialCorpus is the cluster byte-identity gate: the
// whole 50-program difftest corpus is compiled through a 3-node
// in-process cluster behind the consistent-hash router, by concurrent
// clients, twice per program — and then one node is killed mid-run and
// the corpus compiled again. Every served assembly, before and after
// the kill, must equal the local aviv.CompileSource output: routing,
// forwarding, cache peering, per-block reuse, failover, and
// local fallback may change where and how fast a compile runs, never
// its bytes. Run under -race (the clustersmoke CI stage does) this is
// also the data-race gate for the whole cluster layer.
func TestClusterDifferentialCorpus(t *testing.T) {
	want := aviv.CorpusProgramText(t, aviv.DefaultOptions())

	lc, err := cluster.StartLocal(cluster.LocalConfig{
		N: 3,
		NodeConfig: func(i int) server.Config {
			return server.Config{
				Options: aviv.Options{
					Cache:       cover.NewBoundedCache(256),
					Parallelism: 1,
				},
				QueueLimit: 256,
			}
		},
		// Reactive-only health: ejection happens on the first failed
		// forward, deterministically, not via a racing probe.
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	routerURL, err := lc.StartRouter()
	if err != nil {
		t.Fatal(err)
	}

	const seeds = 50
	requestFor := func(seed int) server.CompileRequest {
		bitwise := seed%2 == 1
		src, _ := bench.DiffProgram(int64(seed), bitwise)
		machine := isdl.ExampleArchFullISDL
		if bitwise {
			machine = isdl.SingleIssueDSPISDL
		}
		return server.CompileRequest{Source: src, Machine: machine, Unroll: 1, Preset: "default"}
	}

	runWave := func(label string) [seeds]string {
		jobs := make(chan int, seeds)
		for seed := 0; seed < seeds; seed++ {
			jobs <- seed
		}
		close(jobs)
		var (
			mu  sync.Mutex
			got [seeds]string
		)
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seed := range jobs {
					body, err := json.Marshal(requestFor(seed))
					if err != nil {
						t.Errorf("%s seed %d: marshal: %v", label, seed, err)
						return
					}
					httpResp, err := http.Post(routerURL+"/compile", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("%s seed %d: post: %v", label, seed, err)
						return
					}
					var resp server.CompileResponse
					err = json.NewDecoder(httpResp.Body).Decode(&resp)
					httpResp.Body.Close()
					if err != nil {
						t.Errorf("%s seed %d: decode (HTTP %d): %v", label, seed, httpResp.StatusCode, err)
						return
					}
					if httpResp.StatusCode != http.StatusOK || resp.Error != "" {
						t.Errorf("%s seed %d: HTTP %d, error %q", label, seed, httpResp.StatusCode, resp.Error)
						return
					}
					mu.Lock()
					got[seed] = resp.Assembly
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return got
	}

	check := func(label string, got [seeds]string) {
		t.Helper()
		var all string
		for seed := 0; seed < seeds; seed++ {
			all += fmt.Sprintf("== seed %d ==\n%s\n", seed, got[seed])
		}
		if all != want {
			t.Fatalf("%s: served corpus differs from local compilation (%d vs %d bytes)", label, len(all), len(want))
		}
	}

	check("cold", runWave("cold"))
	check("warm", runWave("warm"))

	// Count how many corpus keys the about-to-die node owns; with 50
	// keys over 3 nodes this is essentially always nonzero, and it is
	// what guarantees the kill actually exercises failover below.
	ring := cluster.NewRing(lc.URLs)
	doomedOwned := 0
	for seed := 0; seed < seeds; seed++ {
		if ring.Owner(server.RequestKey(requestFor(seed)), nil) == lc.URLs[2] {
			doomedOwned++
		}
	}
	if doomedOwned == 0 {
		t.Skip("killed node owns no corpus keys; kill phase would prove nothing")
	}

	lc.KillNode(2)
	check("degraded", runWave("degraded"))

	// The dead node's keys were re-dispersed: the router failed over,
	// and at least one survivor hit the corpse once (counted, ejected)
	// before compiling locally.
	fallbacks := int64(0)
	for _, i := range []int{0, 1} {
		c := lc.Nodes[i].Server().Counters()
		fallbacks += c.LocalFallbacks.Load()
	}
	if fallbacks == 0 {
		t.Errorf("node killed while owning %d corpus keys, but no survivor recorded a local fallback", doomedOwned)
	}
}
