package aviv_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/diskcache"
	"aviv/internal/isdl"
	"aviv/internal/server"
)

// The test ships the textual ISDL equivalents of the two difftest
// corpus machines (isdl.ExampleArchFullISDL, isdl.SingleIssueDSPISDL)
// over the wire while compiling locally with the built-in constructors,
// so a mismatch in either the texts or the served pipeline breaks the
// byte-identity check.

// TestServerDifferentialCorpus is the compile-as-a-service byte-identity
// gate: the whole 50-program difftest corpus is compiled through an
// in-process avivd (two-tier cache enabled) by concurrent clients, twice
// per program, and every served assembly must equal the local
// aviv.CompileSource output for the same program and machine. Run under
// -race this also exercises single-flight, the worker pool, machine
// interning, and both cache tiers for data races.
func TestServerDifferentialCorpus(t *testing.T) {
	want := aviv.CorpusProgramText(t, aviv.DefaultOptions())

	disk, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{
		Options: aviv.Options{
			Cache:     cover.NewBoundedCache(256),
			DiskCache: disk,
		},
		// Both per-block tiers are on, as in avivd by default, so this is
		// also the byte-identity gate for blocks reused across requests.
		QueueLimit: 256,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const seeds = 50
	const waves = 2
	type job struct{ seed, wave int }
	jobs := make(chan job, seeds*waves)
	for wave := 0; wave < waves; wave++ {
		for seed := 0; seed < seeds; seed++ {
			jobs <- job{seed, wave}
		}
	}
	close(jobs)

	var (
		mu  sync.Mutex
		got [waves][seeds]string
	)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				bitwise := j.seed%2 == 1
				src, _ := bench.DiffProgram(int64(j.seed), bitwise)
				machine := isdl.ExampleArchFullISDL
				if bitwise {
					machine = isdl.SingleIssueDSPISDL
				}
				body, err := json.Marshal(server.CompileRequest{
					Source:  src,
					Machine: machine,
					Unroll:  1,
					Preset:  "default",
				})
				if err != nil {
					t.Errorf("seed %d: marshal: %v", j.seed, err)
					return
				}
				httpResp, err := http.Post(ts.URL+"/compile", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("seed %d: post: %v", j.seed, err)
					return
				}
				var resp server.CompileResponse
				err = json.NewDecoder(httpResp.Body).Decode(&resp)
				httpResp.Body.Close()
				if err != nil {
					t.Errorf("seed %d: decode (HTTP %d): %v", j.seed, httpResp.StatusCode, err)
					return
				}
				if httpResp.StatusCode != http.StatusOK || resp.Error != "" {
					t.Errorf("seed %d: HTTP %d, error %q", j.seed, httpResp.StatusCode, resp.Error)
					return
				}
				mu.Lock()
				got[j.wave][j.seed] = resp.Assembly
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("served compiles failed; see errors above")
	}

	var all string
	for seed := 0; seed < seeds; seed++ {
		if got[0][seed] != got[1][seed] {
			t.Errorf("seed %d: wave 0 and wave 1 served different assembly", seed)
		}
		all += fmt.Sprintf("== seed %d ==\n%s\n", seed, got[0][seed])
	}
	if all != want {
		t.Fatalf("served corpus differs from local compilation (%d vs %d bytes)", len(all), len(want))
	}

	c := s.Counters().Snapshot()
	if c.Requests != seeds*waves || c.Completed == 0 {
		t.Fatalf("unexpected server counters: %+v", c)
	}
	ds := disk.Stats()
	if ds.Writes == 0 || ds.Corrupt != 0 {
		t.Fatalf("disk tier not exercised cleanly: %+v", ds)
	}
}
