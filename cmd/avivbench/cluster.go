package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cluster"
	"aviv/internal/cover"
	"aviv/internal/isdl"
	"aviv/internal/server"
)

// clusterScalingModel documents what the scaling study actually
// measures, so the numbers cannot be mistaken for multi-core compute
// scaling. It ships inside BENCH_cluster.json.
const clusterScalingModel = "aggregate cache capacity on a shared single-CPU host: every node " +
	"holds the same fixed per-node cache budget (memory-tier entries + entry-store entries), the " +
	"working set is ~3x one node's budget, and requests shard by content key. One node thrashes " +
	"its tiers and recompiles; four nodes fit the working set in aggregate and stitch from cache. " +
	"The speedup is cache aggregation via consistent-hash sharding, not parallel compute."

// clusterNodeStats is one node's slice of a measured pass: request
// latencies attributed to the key's owning node, plus the node's cache
// and peering counters — the cache-hit topology of the fleet.
type clusterNodeStats struct {
	Node           string  `json:"node"`
	Requests       int64   `json:"requests"`
	P50Ms          float64 `json:"p50_ms"`
	P95Ms          float64 `json:"p95_ms"`
	Stitched       int64   `json:"blocks_stitched"`
	Recompiled     int64   `json:"blocks_recompiled"`
	PeerHits       int64   `json:"peer_hits"`
	PeerMisses     int64   `json:"peer_misses"`
	PeerPushes     int64   `json:"peer_pushes"`
	Forwarded      int64   `json:"forwarded"`
	LocalFallbacks int64   `json:"local_fallbacks"`
}

// clusterPhase is the latency/throughput summary of one request wave.
type clusterPhase struct {
	Name          string  `json:"name"`
	Requests      int     `json:"requests"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

// percentileMs returns the nearest-rank p-th percentile of lat in
// milliseconds: the ceil(p*n)-th smallest value, so p95 of 8 samples is
// the slowest one. It returns 0 for no samples.
func percentileMs(lat []time.Duration, p float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return float64(s[min(max(k, 0), len(s)-1)]) / 1e6
}

// clusterScalingRow is one fleet size in the capacity-scaling study.
type clusterScalingRow struct {
	Nodes        int                `json:"nodes"`
	Warmup       clusterPhase       `json:"warmup"`
	Warm         clusterPhase       `json:"warm"`
	WarmVsSingle float64            `json:"warm_vs_single_node"`
	Efficiency   float64            `json:"linear_scaling_efficiency"`
	PerNode      []clusterNodeStats `json:"per_node"`
}

// clusterDedup is the cold duplicate-storm phase: many clients ask for
// few distinct programs and the owning shards' single-flight groups
// must collapse them to ~one compile per distinct key.
type clusterDedup struct {
	DistinctKeys     int     `json:"distinct_keys"`
	Requests         int     `json:"requests"`
	ExecutedCompiles int64   `json:"executed_compiles"`
	CompilesPerKey   float64 `json:"recompiled_blocks_per_distinct_block"`
	DedupRate        float64 `json:"dedup_rate"`
}

// clusterKill is the fault phase: one node of a warm fleet dies and
// the survivors absorb its keys without a single failed request.
type clusterKill struct {
	KilledNode     string  `json:"killed_node"`
	Requests       int     `json:"requests"`
	Errors         int     `json:"errors"`
	ForwardErrors  int64   `json:"forward_errors"`
	LocalFallbacks int64   `json:"local_fallbacks"`
	P50Ms          float64 `json:"p50_ms"`
	P95Ms          float64 `json:"p95_ms"`
	ThroughputRPS  float64 `json:"throughput_rps"`
}

// clusterReport is the machine-readable -clusterjson output
// (BENCH_cluster.json).
type clusterReport struct {
	Benchmark           string              `json:"benchmark"`
	Programs            int                 `json:"programs"`
	BlocksPerProg       int                 `json:"blocks_per_program"`
	OpsPerBlock         int                 `json:"ops_per_block"`
	PerNodeCapacity     int                 `json:"per_node_capacity_entries"`
	WorkingSetArtifacts int                 `json:"working_set_artifacts"`
	ScalingModel        string              `json:"scaling_model"`
	LocalColdMsPer      float64             `json:"local_cold_ms_per_compile"`
	Scaling             []clusterScalingRow `json:"scaling"`
	Dedup               clusterDedup        `json:"dedup"`
	Kill                clusterKill         `json:"kill"`
}

// clusterStudy measures the compile cluster end to end: capacity
// scaling at N=1,2,4,8 over a working set ~3x one node's cache budget,
// a cold duplicate storm proving cluster-wide single-flight, and a
// kill-one-node pass proving availability. Every served assembly in
// every phase is checked byte-identical to a local compile before any
// number is reported. With jsonPath non-empty the report is written as
// JSON (BENCH_cluster.json).
func clusterStudy(jsonPath string, nPrograms, opsPerBlock, capacity int) error {
	const nBlocks = 6
	const clients = 8
	if nPrograms < 8 {
		nPrograms = 8
	}
	if opsPerBlock < 1 {
		opsPerBlock = 1
	}
	machine, err := isdl.Parse(isdl.ExampleArchFullISDL)
	if err != nil {
		return err
	}
	sources := make([]string, nPrograms)
	for i := range sources {
		sources[i] = bench.MultiBlockSource(int64(i+1), nBlocks, opsPerBlock)
	}

	// Local cold baseline, and the byte-identity references.
	local := make([]string, nPrograms)
	blocksPer := 0
	localStart := time.Now()
	for i, src := range sources {
		res, err := aviv.CompileSource(src, machine, 1, aviv.DefaultOptions())
		if err != nil {
			return fmt.Errorf("local compile %d: %w", i, err)
		}
		local[i] = res.Program.String()
		blocksPer = len(res.Blocks)
	}
	localMsPer := float64(time.Since(localStart).Milliseconds()) / float64(nPrograms)
	workingSet := nPrograms * blocksPer
	if capacity <= 0 {
		// Default: one node holds a third of the working set, so a
		// single node thrashes while four nodes fit it comfortably.
		capacity = workingSet / 3
	}

	requests := make([]server.CompileRequest, nPrograms)
	for i, src := range sources {
		requests[i] = server.CompileRequest{Source: src, Machine: isdl.ExampleArchFullISDL, Unroll: 1, Preset: "default"}
	}

	startFleet := func(n int) (*cluster.LocalCluster, string, error) {
		lc, err := cluster.StartLocal(cluster.LocalConfig{
			N: n,
			NodeConfig: func(i int) server.Config {
				return server.Config{
					Options: aviv.Options{
						// `capacity` caps both tiers: it is the single
						// per-node budget knob.
						Cache:       cover.NewBoundedCache(capacity),
						DiskCache:   cluster.NewMemStore(capacity),
						Parallelism: 1,
					},
					QueueLimit: 1024,
					Timeout:    120 * time.Second,
				}
			},
			ProbeInterval: time.Hour, // reactive-only health: deterministic
		})
		if err != nil {
			return nil, "", err
		}
		routerURL, err := lc.StartRouter()
		if err != nil {
			lc.Close()
			return nil, "", err
		}
		return lc, routerURL, nil
	}

	// wave pushes every request once through the router with `clients`
	// concurrent workers, verifying byte identity, and returns overall
	// latencies, per-owner latencies, wall time, and the error count
	// (transport/status errors; byte mismatches abort).
	ring := func(lc *cluster.LocalCluster) *cluster.Ring { return cluster.NewRing(lc.URLs) }
	wave := func(routerURL string, rg *cluster.Ring) ([]time.Duration, map[string][]time.Duration, time.Duration, int, error) {
		jobs := make(chan int, nPrograms)
		for i := 0; i < nPrograms; i++ {
			jobs <- i
		}
		close(jobs)
		var (
			mu      sync.Mutex
			lat     []time.Duration
			byOwner = make(map[string][]time.Duration)
			errorsN int
			fatal   error
		)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					body, err := json.Marshal(requests[i])
					if err != nil {
						mu.Lock()
						fatal = err
						mu.Unlock()
						return
					}
					owner := rg.Owner(server.RequestKey(requests[i]), nil)
					t0 := time.Now()
					httpResp, err := http.Post(routerURL+"/compile", "application/json", bytes.NewReader(body))
					if err != nil {
						mu.Lock()
						errorsN++
						mu.Unlock()
						continue
					}
					var resp server.CompileResponse
					err = json.NewDecoder(httpResp.Body).Decode(&resp)
					httpResp.Body.Close()
					d := time.Since(t0)
					if err != nil || httpResp.StatusCode != http.StatusOK || resp.Error != "" {
						mu.Lock()
						errorsN++
						mu.Unlock()
						continue
					}
					if resp.Assembly != local[i] {
						mu.Lock()
						fatal = fmt.Errorf("program %d: served assembly differs from local compile", i)
						mu.Unlock()
						return
					}
					mu.Lock()
					lat = append(lat, d)
					byOwner[owner] = append(byOwner[owner], d)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		if fatal != nil {
			return nil, nil, 0, 0, fatal
		}
		return lat, byOwner, wall, errorsN, nil
	}

	phase := func(name string, lat []time.Duration, wall time.Duration) clusterPhase {
		return clusterPhase{
			Name:          name,
			Requests:      len(lat),
			P50Ms:         percentileMs(lat, 0.50),
			P95Ms:         percentileMs(lat, 0.95),
			ThroughputRPS: float64(len(lat)) / wall.Seconds(),
		}
	}
	nodeStats := func(lc *cluster.LocalCluster, byOwner map[string][]time.Duration) []clusterNodeStats {
		out := make([]clusterNodeStats, len(lc.Nodes))
		for i, node := range lc.Nodes {
			c := node.Server().Counters()
			out[i] = clusterNodeStats{
				Node:           node.Self(),
				Requests:       c.Requests.Load(),
				P50Ms:          percentileMs(byOwner[node.Self()], 0.50),
				P95Ms:          percentileMs(byOwner[node.Self()], 0.95),
				Stitched:       c.BlocksStitched.Load(),
				Recompiled:     c.BlocksRecompiled.Load(),
				PeerHits:       c.PeerHits.Load(),
				PeerMisses:     c.PeerMisses.Load(),
				PeerPushes:     0, // only in /stats; filled below when needed
				Forwarded:      c.Forwarded.Load(),
				LocalFallbacks: c.LocalFallbacks.Load(),
			}
			// The push counter lives in the cluster section; read it over
			// the wire so the endpoint is exercised too.
			var stats server.StatsResponse
			if resp, err := http.Get(node.Self() + "/stats"); err == nil {
				err = json.NewDecoder(resp.Body).Decode(&stats)
				resp.Body.Close()
				if err == nil && stats.Cluster != nil {
					out[i].PeerPushes = stats.Cluster.PeerPushes
				}
			}
		}
		return out
	}

	fmt.Printf("==== Compile cluster study (%d programs x %d blocks x %d ops, cap %d entries/node) ====\n",
		nPrograms, blocksPer, opsPerBlock, capacity)
	fmt.Printf("local cold: %.2f ms/compile; working set %d artifacts (~%.1fx one node's budget)\n",
		localMsPer, workingSet, float64(workingSet)/float64(capacity))

	report := clusterReport{
		Benchmark:           "ClusterMultiBlock",
		Programs:            nPrograms,
		BlocksPerProg:       blocksPer,
		OpsPerBlock:         opsPerBlock,
		PerNodeCapacity:     capacity,
		WorkingSetArtifacts: workingSet,
		ScalingModel:        clusterScalingModel,
		LocalColdMsPer:      localMsPer,
	}

	// Phase 1: capacity scaling.
	singleWarmRPS := 0.0
	for _, n := range []int{1, 2, 4, 8} {
		lc, routerURL, err := startFleet(n)
		if err != nil {
			return err
		}
		rg := ring(lc)
		wlat, _, wwall, werrs, err := wave(routerURL, rg)
		if err != nil {
			lc.Close()
			return err
		}
		mlat, byOwner, mwall, merrs, err := wave(routerURL, rg)
		if err != nil {
			lc.Close()
			return err
		}
		if werrs+merrs != 0 {
			lc.Close()
			return fmt.Errorf("N=%d: %d request errors in a healthy fleet", n, werrs+merrs)
		}
		row := clusterScalingRow{
			Nodes:   n,
			Warmup:  phase("warmup", wlat, wwall),
			Warm:    phase("warm", mlat, mwall),
			PerNode: nodeStats(lc, byOwner),
		}
		if n == 1 {
			singleWarmRPS = row.Warm.ThroughputRPS
		}
		row.WarmVsSingle = row.Warm.ThroughputRPS / singleWarmRPS
		row.Efficiency = row.WarmVsSingle / float64(n)
		report.Scaling = append(report.Scaling, row)
		fmt.Printf("N=%d  warmup %6.1f req/s   warm p50 %7.2f ms  p95 %7.2f ms  %7.1f req/s   %5.2fx single  eff %5.1f%%\n",
			n, row.Warmup.ThroughputRPS, row.Warm.P50Ms, row.Warm.P95Ms, row.Warm.ThroughputRPS,
			row.WarmVsSingle, 100*row.Efficiency)
		lc.Close()
	}

	// Phase 2: cold duplicate storm — cluster-wide single-flight.
	{
		lc, routerURL, err := startFleet(4)
		if err != nil {
			return err
		}
		distinct := nPrograms / 6
		if distinct < 4 {
			distinct = 4
		}
		const dupes = 6
		var wg sync.WaitGroup
		var mu sync.Mutex
		errorsN := 0
		var fatal error
		for i := 0; i < distinct; i++ {
			for d := 0; d < dupes; d++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					body, _ := json.Marshal(requests[i])
					httpResp, err := http.Post(routerURL+"/compile", "application/json", bytes.NewReader(body))
					if err != nil {
						mu.Lock()
						errorsN++
						mu.Unlock()
						return
					}
					var resp server.CompileResponse
					err = json.NewDecoder(httpResp.Body).Decode(&resp)
					httpResp.Body.Close()
					if err != nil || httpResp.StatusCode != http.StatusOK || resp.Error != "" {
						mu.Lock()
						errorsN++
						mu.Unlock()
						return
					}
					if resp.Assembly != local[i] {
						mu.Lock()
						fatal = fmt.Errorf("dedup program %d: served assembly differs from local compile", i)
						mu.Unlock()
					}
				}(i)
			}
		}
		wg.Wait()
		if fatal != nil {
			lc.Close()
			return fatal
		}
		if errorsN != 0 {
			lc.Close()
			return fmt.Errorf("dedup phase: %d request errors in a healthy fleet", errorsN)
		}
		var completed, forwarded, deduped, reqs, recompiled int64
		for _, node := range lc.Nodes {
			c := node.Server().Counters()
			completed += c.Completed.Load()
			forwarded += c.Forwarded.Load()
			deduped += c.Deduped.Load()
			reqs += c.Requests.Load()
			recompiled += c.BlocksRecompiled.Load()
		}
		report.Dedup = clusterDedup{
			DistinctKeys:     distinct,
			Requests:         distinct * dupes,
			ExecutedCompiles: completed - forwarded,
			CompilesPerKey:   float64(recompiled) / float64(distinct*blocksPer),
			DedupRate:        float64(deduped) / float64(reqs),
		}
		fmt.Printf("dedup: %d requests over %d distinct keys -> %d executed compiles, %.2f recompiled blocks per distinct block, dedup rate %.2f\n",
			report.Dedup.Requests, distinct, report.Dedup.ExecutedCompiles, report.Dedup.CompilesPerKey, report.Dedup.DedupRate)
		lc.Close()
	}

	// Phase 3: kill one node of a warm 4-node fleet mid-workload.
	{
		lc, routerURL, err := startFleet(4)
		if err != nil {
			return err
		}
		rg := ring(lc)
		if _, _, _, werrs, err := wave(routerURL, rg); err != nil || werrs != 0 {
			lc.Close()
			if err == nil {
				err = fmt.Errorf("kill-phase warmup: %d request errors", werrs)
			}
			return err
		}
		lc.KillNode(3)
		lat, _, wall, errorsN, err := wave(routerURL, rg)
		if err != nil {
			lc.Close()
			return err
		}
		var forwardErrors, fallbacks int64
		for i := 0; i < 3; i++ {
			c := lc.Nodes[i].Server().Counters()
			forwardErrors += c.ForwardErrors.Load()
			fallbacks += c.LocalFallbacks.Load()
		}
		report.Kill = clusterKill{
			KilledNode:     lc.Nodes[3].Self(),
			Requests:       nPrograms,
			Errors:         errorsN,
			ForwardErrors:  forwardErrors,
			LocalFallbacks: fallbacks,
			P50Ms:          percentileMs(lat, 0.50),
			P95Ms:          percentileMs(lat, 0.95),
			ThroughputRPS:  float64(len(lat)) / wall.Seconds(),
		}
		fmt.Printf("kill: node 3 killed warm; %d requests, %d errors, %d forward errors, %d local fallbacks, p50 %.2f ms, p95 %.2f ms\n",
			nPrograms, errorsN, forwardErrors, fallbacks, report.Kill.P50Ms, report.Kill.P95Ms)
		lc.Close()
	}

	fmt.Println("(every served assembly verified byte-identical to the local compile)")
	if jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", jsonPath)
	}
	fmt.Println()
	return nil
}
