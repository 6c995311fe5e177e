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
	"aviv/internal/diskcache"
	"aviv/internal/isdl"
	"aviv/internal/server"
)

// TestClusterDifferentialCorpus is the cluster byte-identity gate: the
// whole 50-program difftest corpus is compiled through the
// consistent-hash router in front of three in-process servers sharing
// one disk directory, by concurrent clients, twice per program — and
// then one server is killed and the corpus compiled again. Every
// served assembly, before and after the kill, must equal the local
// aviv.CompileSource output: routing, per-block reuse from either
// tier, and failover may change where and how fast a compile runs,
// never its bytes. Because the disk directory is shared, the degraded
// wave recompiles no block: the survivors read the dead server's
// blocks from disk. Run under -race (the clustersmoke CI stage does)
// this is also the data-race gate for the router.
func TestClusterDifferentialCorpus(t *testing.T) {
	want := aviv.CorpusProgramText(t, aviv.DefaultOptions())

	dir := t.TempDir()
	lc, err := cluster.StartLocal(cluster.LocalConfig{
		N: 3,
		NodeConfig: func(i int) server.Config {
			disk, err := diskcache.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			return server.Config{
				Options: aviv.Options{
					Cache:       cover.NewBoundedCache(256),
					DiskCache:   disk,
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

	// runWave compiles the corpus once and returns each program's
	// assembly and the blocks covered fresh, summed over the wave.
	runWave := func(label string) ([seeds]string, int) {
		jobs := make(chan int, seeds)
		for seed := 0; seed < seeds; seed++ {
			jobs <- seed
		}
		close(jobs)
		var (
			mu         sync.Mutex
			got        [seeds]string
			recompiled int
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
					recompiled += resp.RecompiledBlocks
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return got, recompiled
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

	for _, label := range []string{"cold", "warm"} {
		got, _ := runWave(label)
		check(label, got)
	}

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
	got, recompiled := runWave("degraded")
	check("degraded", got)

	// The router failed the dead server's keys over to the survivors,
	// which found every block of them in the shared directory.
	if recompiled != 0 {
		t.Errorf("server killed while owning %d corpus keys: the degraded wave recompiled %d blocks, want 0", doomedOwned, recompiled)
	}
}
