// Command perfbench is the repository's serving benchmark. It runs an
// in-process avivd — server.New(...).Handler() with cmd/avivd's
// production defaults — on a loopback listener, drives it with one
// closed-loop client per CPU through a fixed, seeded list of compile
// requests, checks every output, and prints the end-to-end metrics, or
// with -trace 1 the per-layer breakdown. See README.md.
//
//	bash perfbench/run.sh --workload warm_repeat --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"aviv/internal/diskcache"
	"aviv/internal/isdl"
)

// minSamples keeps at least ten samples above the 95th percentile.
const minSamples = 200

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := flag.Int("seconds", 10, "measure whole rounds until this many seconds of timed work")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	root := flag.String("root", ".", "repository root; scratch files and spans go under <root>/.bench_build/perfbench")
	flag.Parse()

	names := workloadNames
	if *workload != "all" {
		names = []string{*workload}
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		clients: runtime.GOMAXPROCS(0),
		out:     filepath.Join(*root, ".bench_build", "perfbench"),
	}
	total := result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, name := range names {
		res, err := runWorkload(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if len(names) == 1 {
			total = *res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"/"+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !total.Correct {
		os.Exit(1)
	}
}

type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	clients int
	out     string
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metric struct {
	name  string
	value float64
	unit  string
}

// runWorkload runs a warm-up round, then measures whole rounds until
// cfg.seconds of timed work and minSamples timed requests are done,
// checks every output, and prints the metrics of one workload.
func runWorkload(name string, cfg config) (*result, error) {
	w, err := NewWorkload(name, cfg.seed, cfg.clients)
	if err != nil {
		return nil, err
	}
	m, err := isdl.Parse(isdl.ExampleArchFullISDL)
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(cfg.out, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	t := &tally{w: w, chk: newChecker(m), correct: true}
	epoch := time.Now()

	// The first round in a fresh process runs slower than later ones, so
	// a warm-up round is checked but not measured, and its whole time
	// counts as set-up.
	warm, err := runRound(w, cfg.clients, scratch, false, epoch)
	if err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	t.check(warm, false, false)
	setups := []float64{(warm.setup + warm.wall).Seconds()}

	var rounds []*round
	var timed time.Duration
	n := 0
	for i := 0; ; i++ {
		// A traced run alternates untraced and traced rounds, so both
		// see the same process state; the difference is the overhead.
		traced := cfg.trace && i%2 == 1
		r, err := runRound(w, cfg.clients, scratch, traced, epoch)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		// The replay compares against the first traced round's texts.
		t.check(r, true, traced && i == 1)
		rounds = append(rounds, r)
		setups = append(setups, r.setup.Seconds())
		timed += r.wall
		n += len(r.samples)
		l := latencies(r.samples)
		fmt.Fprintf(os.Stderr, "perfbench: %s round %d traced=%v setup %.3fs timed %.3fs %d requests p10/p25/p50/p75/p90 %.2f/%.2f/%.2f/%.2f/%.2fms\n",
			name, i, r.traced, r.setup.Seconds(), r.wall.Seconds(), len(r.samples),
			ms(percentile(l, 0.1)), ms(percentile(l, 0.25)), ms(percentile(l, 0.5)), ms(percentile(l, 0.75)), ms(percentile(l, 0.9)))
		if timed >= cfg.seconds && n >= minSamples && (!cfg.trace || i >= 1) {
			break
		}
	}

	res := &result{Correct: t.correct, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]jsonMetric{}}
	var mets []metric
	if cfg.trace {
		mets, err = perLayer(w, m, rounds, cfg, scratch)
		if err != nil {
			res.Correct = false
			t.problems = append(t.problems, err.Error())
		}
	} else {
		mets = endToEnd(w, rounds, setups, t)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	for i, p := range t.problems {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: ... %d more problems\n", name, len(t.problems)-5)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, p)
	}
	fmt.Printf("%s (seed %d, %d clients, %d rounds, %d timed requests, error_rate %.4f)\n",
		name, cfg.seed, cfg.clients, len(rounds), res.Attempted, ratio(float64(res.Failed), float64(res.Attempted)))
	for _, mt := range mets {
		fmt.Printf("  %-30s %14.4f %s\n", mt.name, mt.value, mt.unit)
		res.Metrics[mt.name] = jsonMetric{Value: mt.value, Unit: mt.unit}
	}
	return res, nil
}

// tally checks every round's responses outside its timed window.
type tally struct {
	w                 *Workload
	chk               *checker
	correct           bool
	attempted, failed int
	problems          []string
}

// check verifies a round's responses: each answered 200 with no in-band
// error, byte-identical to the first assembly served for its program in
// the run (set-up included, so a stitched response must equal the cold
// compile), and that assembly right on the simulator. Timed requests of
// measured rounds count as attempted; any other failure makes the run
// incorrect. Assembly texts are dropped afterwards unless keep, so
// memory does not grow with the number of rounds.
func (t *tally) check(r *round, measured, keep bool) {
	for _, s := range r.setupSamples {
		if p := t.verdict(s); p != "" {
			t.correct = false
			t.problems = append(t.problems, "set-up: "+p)
		}
	}
	r.setupSamples = nil
	for i, s := range r.samples {
		if measured {
			t.attempted++
		}
		if p := t.verdict(s); p != "" {
			if measured {
				t.failed++
			} else {
				t.correct = false
			}
			t.problems = append(t.problems, p)
		}
		if !keep {
			r.samples[i].asm = ""
		}
	}
}

func (t *tally) verdict(s sample) string {
	switch {
	case !s.ok:
		return s.problem
	case !t.chk.same(s.prog, s.asm):
		return fmt.Sprintf("program %d: response differs from an earlier one", s.prog)
	}
	if err := t.chk.semantic(s.prog, t.w.Sources[s.prog]).err; err != nil {
		return fmt.Sprintf("program %d: %v", s.prog, err)
	}
	return ""
}

// endToEnd computes the metrics a user of avivd sees, over the measured
// rounds' timed windows.
func endToEnd(w *Workload, rounds []*round, setups []float64, t *tally) []metric {
	// Every figure pools all measured rounds. The host's speed jitters
	// from one round to the next, and a pooled figure averages over all
	// of it: over ten seeds on disk_spill, the median of per-round
	// medians spread 0.155 where the pooled 95th percentile spread 0.04.
	var lat []time.Duration
	var wall, cpu time.Duration
	var alloc uint64
	for _, r := range rounds {
		lat = append(lat, latencies(r.samples)...)
		wall += r.wall
		cpu += r.use.cpu
		alloc += r.use.allocBytes
	}
	n := float64(t.attempted)
	// Code quality is averaged over the distinct programs served, each
	// counted once however often it was requested.
	var size, cycles float64
	progs := distinct(w.Timed())
	for _, p := range progs {
		r := t.chk.semantic(p, w.Sources[p])
		size += float64(r.codeSize)
		cycles += float64(r.cycles)
	}
	return []metric{
		{"latency_p50_ms", ms(percentile(lat, 0.5)), "ms"},
		{"latency_p95_ms", ms(percentile(lat, 0.95)), "ms"},
		{"throughput_rps", n / wall.Seconds(), "1/s"},
		{"success_rate", (n - float64(t.failed)) / n, "ratio"},
		{"cpu_ms_per_req", ms(cpu) / n, "ms"},
		{"alloc_mb_per_req", float64(alloc) / (1 << 20) / n, "MiB"},
		{"peak_rss_mb", float64(peakRSS()) / (1 << 20), "MiB"},
		{"code_size_instrs", size / float64(len(progs)), "instrs"},
		{"sim_cycles", cycles / float64(len(progs)), "cycles"},
		{"setup_s", median(setups), "s"},
	}
}

// perLayer computes the traced breakdown: real-path spans and counters
// from the traced rounds, GC figures from the untraced ones, and layer
// times from a replay of the first traced round.
func perLayer(w *Workload, m *isdl.Machine, rounds []*round, cfg config, scratch string) ([]metric, error) {
	var traced, plain []*round
	for _, r := range rounds {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	dir := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d", w.Name, cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	// Real path: handler and client self times, server and tier counters.
	var handlerSelf, clientSelf []time.Duration
	var reqs, asmBytes float64
	var c counters
	for i, r := range traced {
		self := SelfTimes(r.spans)
		handlerSelf = append(handlerSelf, values(PerRequest(r.spans, self, "server.handler"))...)
		clientSelf = append(clientSelf, values(PerRequest(r.spans, self, "client"))...)
		reqs += float64(len(r.samples))
		for _, s := range r.samples {
			asmBytes += float64(s.bytes)
		}
		c.add(r)
		if err := WriteSpans(filepath.Join(dir, fmt.Sprintf("round%d.jsonl", i)), r.spans); err != nil {
			return nil, err
		}
	}
	var gcCPU, allCPU, gcCycles, plainReqs float64
	var pauses, plainLat, tracedLat []time.Duration
	for _, r := range plain {
		gcCPU += r.use.gcCPU
		allCPU += r.use.allCPU
		gcCycles += float64(r.use.numGC)
		plainReqs += float64(len(r.samples))
		pauses = append(pauses, r.use.pauses...)
		plainLat = append(plainLat, latencies(r.samples)...)
	}
	for _, r := range traced {
		tracedLat = append(tracedLat, latencies(r.samples)...)
	}

	// Replay the first traced round in the order the server took its
	// requests.
	rep, err := replayRound(w, m, traced[0], scratch)
	if err != nil {
		return nil, err
	}
	if err := WriteSpans(filepath.Join(dir, "replay.jsonl"), rep.spans); err != nil {
		return nil, err
	}
	self := SelfTimes(rep.spans)
	layer := func(name string) float64 {
		per := PerRequest(rep.spans, self, name)
		xs := make([]time.Duration, len(rep.order))
		for i, id := range rep.order {
			xs[i] = per[id]
		}
		return ms(percentile(xs, 0.5))
	}
	mean := func(f func(replayCounts) float64) float64 {
		total := 0.0
		for _, id := range rep.order {
			total += f(rep.counts[id])
		}
		return total / float64(len(rep.order))
	}
	handler := PerRequest(traced[0].spans, SelfTimes(traced[0].spans), "server.handler")
	residual := Residuals(handler, LayerSum(rep.spans, self, "replay"))
	p50plain, p50traced := ms(percentile(plainLat, 0.5)), ms(percentile(tracedLat, 0.5))

	return []metric{
		{"server.handler_ms", ms(percentile(handlerSelf, 0.5)), "ms"},
		{"server.transport_ms", ms(percentile(clientSelf, 0.5)), "ms"},
		{"server.json_ms", layer("server.json"), "ms"},
		{"server.request_key_ms", layer("server.request_key"), "ms"},
		{"server.dedup_ratio", ratio(c.deduped, c.requests), "ratio"},
		{"server.shed_ratio", ratio(c.shed, c.requests), "ratio"},
		{"lang.parse_ms", layer("lang.parse"), "ms"},
		{"lang.lower_ms", layer("lang.lower"), "ms"},
		{"opt.optimize_ms", layer("opt.optimize"), "ms"},
		{"opt.alloc_mb", mean(func(c replayCounts) float64 { return float64(c.optAlloc) / (1 << 20) }), "MiB"},
		{"dataflow.liveness_ms", layer("dataflow.liveness"), "ms"},
		{"delta.compile_ms", layer("delta.compile"), "ms"},
		{"delta.recompiled_blocks", c.recompiled / reqs, "count"},
		{"delta.mem_hit_ratio", ratio(c.memHits, c.memHits+c.memMisses), "ratio"},
		{"delta.disk_stitched_blocks", c.diskStitched / reqs, "count"},
		{"delta.evictions", c.evictions / reqs, "count"},
		{"cover.block_key_ms", layer("cover.block_key"), "ms"},
		{"cover.cover_ms", layer("cover.cover"), "ms"},
		{"cover.assignments_explored", mean(func(c replayCounts) float64 { return float64(c.assignments) }), "count"},
		{"sndag.build_ms", layer("sndag.build"), "ms"},
		{"sndag.nodes", mean(func(c replayCounts) float64 { return float64(c.dagNodes) }), "count"},
		{"cover.cache_hit_ratio", ratio(c.coverHits, c.coverHits+c.coverMisses), "ratio"},
		{"cover.encode_ms", layer("cover.encode"), "ms"},
		{"cover.decode_ms", layer("cover.decode"), "ms"},
		{"peephole.optimize_ms", layer("peephole.optimize"), "ms"},
		{"peephole.saved_instrs", mean(func(c replayCounts) float64 { return float64(c.peepholeSaved) }), "count"},
		{"regalloc.allocate_ms", layer("regalloc.allocate"), "ms"},
		{"asm.emit_ms", layer("asm.emit"), "ms"},
		{"asm.layout_ms", layer("asm.layout"), "ms"},
		{"asm.render_ms", layer("asm.render"), "ms"},
		{"asm.bytes", asmBytes / reqs, "bytes"},
		{"diskcache.get_ms", layer("diskcache.get"), "ms"},
		{"diskcache.gets", c.gets / reqs, "count"},
		{"diskcache.hit_ratio", ratio(c.diskHits, c.gets), "ratio"},
		{"diskcache.put_ms", layer("diskcache.put"), "ms"},
		{"diskcache.puts", c.puts / reqs, "count"},
		{"gc.cpu_fraction", ratio(gcCPU, allCPU), "ratio"},
		{"gc.cycles", gcCycles / plainReqs, "count"},
		{"gc.pause_ms", ms(percentile(pauses, 0.5)), "ms"},
		{"trace.residual_ms", ms(percentile(residual, 0.5)), "ms"},
		{"trace.overhead_pct", 100 * (p50traced - p50plain) / p50plain, "%"},
	}, nil
}

// counters sums the real-path counters of traced rounds' timed windows.
type counters struct {
	requests, deduped, shed                    float64
	recompiled, diskStitched, evictions        float64
	memHits, memMisses, coverHits, coverMisses float64
	gets, diskHits, puts                       float64
}

func (c *counters) add(r *round) {
	b, a := r.before, r.after
	c.requests += float64(a.Server.Requests - b.Server.Requests)
	c.deduped += float64(a.Server.Deduped - b.Server.Deduped)
	c.shed += float64(a.Server.Shed - b.Server.Shed)
	c.recompiled += float64(a.Delta.Recompiled - b.Delta.Recompiled)
	c.diskStitched += float64(a.Delta.DiskHits - b.Delta.DiskHits)
	c.evictions += float64(a.Delta.Evictions - b.Delta.Evictions)
	c.memHits += float64(a.Delta.MemHits - b.Delta.MemHits)
	c.memMisses += float64(a.Delta.MemMisses - b.Delta.MemMisses)
	c.coverHits += float64(a.MemCache.Hits - b.MemCache.Hits)
	c.coverMisses += float64(a.MemCache.Misses - b.MemCache.Misses)
	c.gets += float64(r.store.gets)
	c.diskHits += float64(r.store.hits)
	c.puts += float64(r.store.puts)
}

// replayed is the outcome of replaying one round.
type replayed struct {
	order  []int // timed request ids in serving order
	spans  []Span
	counts map[int]replayCounts
}

// replayRound replays r's set-up untraced, then its timed requests
// traced, in the order the server's handler took them, against a fresh
// disk tier, and checks each assembly against the served one.
func replayRound(w *Workload, m *isdl.Machine, r *round, scratch string) (*replayed, error) {
	dir, err := os.MkdirTemp(scratch, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	disk, err := diskcache.Open(dir, diskMaxBytes)
	if err != nil {
		return nil, err
	}
	rp := newReplayer(w, m, disk)
	for k, prog := range append(append([]int(nil), w.Fill...), w.Pass...) {
		if _, err := rp.request(setupIDBase+k, w.Bodies[prog]); err != nil {
			return nil, fmt.Errorf("replay set-up: %w", err)
		}
	}
	start := map[int]time.Duration{}
	for _, s := range r.spans {
		if s.Name == "server.handler" {
			start[s.Req] = s.Start
		}
	}
	out := &replayed{counts: map[int]replayCounts{}}
	for id := range r.samples {
		out.order = append(out.order, id)
	}
	sort.SliceStable(out.order, func(i, j int) bool { return start[out.order[i]] < start[out.order[j]] })
	rp.tr = NewTracer(time.Now())
	timed := w.Timed()
	for _, id := range out.order {
		text, err := rp.request(id, w.Bodies[timed[id]])
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", id, err)
		}
		if text != r.samples[id].asm {
			return nil, fmt.Errorf("replay request %d: assembly differs from the served response", id)
		}
		out.counts[id] = rp.counts
	}
	out.spans = rp.tr.Spans()
	return out, nil
}

func latencies(samples []sample) []time.Duration {
	out := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		if s.ok {
			out = append(out, s.lat)
		}
	}
	return out
}

// percentile is the nearest-rank p-quantile of xs (0 when empty).
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(float64(len(s))*p+0.999999) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func values(m map[int]time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func distinct(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
