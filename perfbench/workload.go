package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"aviv/internal/bench"
	"aviv/internal/isdl"
	"aviv/internal/server"
)

// Workload names, in the order -workload all runs them.
const (
	coldCompile = "cold_compile"
	warmRepeat  = "warm_repeat"
	editStream  = "edit_stream"
	diskSpill   = "disk_spill"
)

var workloadNames = []string{coldCompile, warmRepeat, editStream, diskSpill}

// Workload is a fixed, seeded list of compile requests and the server
// configuration it runs against. Every round of a run replays exactly
// this work against a fresh server, so the amount of work never depends
// on how long a round took.
type Workload struct {
	Name string
	// Sources are the distinct program texts; requests name them by
	// index, and Bodies holds their pre-marshaled /compile bodies.
	Sources []string
	Bodies  [][]byte
	// Fill is compiled during set-up by all clients at once, then Pass
	// is requested one at a time in order. Nothing in set-up is timed.
	Fill []int
	Pass []int
	// The timed requests: either Shared, which all clients draw from in
	// order (closed loop), or Lanes, one ordered list per client.
	Shared []int
	Lanes  [][]int
	// MemEntries and DeltaEntries cap the server's memory tiers, as
	// avivd's -mem-entries and -delta-entries do.
	MemEntries   int
	DeltaEntries int
}

// avivd's production defaults for the memory-tier caps.
const (
	defaultMemEntries   = 4096
	defaultDeltaEntries = 4096
)

// Timed returns the timed requests in id order: Shared as is, or the
// lanes one after another.
func (w *Workload) Timed() []int {
	if w.Lanes == nil {
		return w.Shared
	}
	var out []int
	for _, lane := range w.Lanes {
		out = append(out, lane...)
	}
	return out
}

// NewWorkload builds the named workload from seed for the given number
// of clients (which sets the number of edit_stream lanes). The same
// arguments always give byte-identical request lists.
func NewWorkload(name string, seed int64, clients int) (*Workload, error) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	g := &generator{w: &Workload{Name: name, MemEntries: defaultMemEntries, DeltaEntries: defaultDeltaEntries}, index: map[string]int{}}
	w := g.w
	switch name {
	case coldCompile:
		// Distinct programs of varied size, each sent once to a fresh
		// server: every tier misses, so covering carries the request. The
		// size cycle (6 to 12 blocks) is fixed and only the content is
		// seeded, so every seed asks for about the same work.
		for k := 0; k < 16; k++ {
			w.Fill = append(w.Fill, g.fresh(rng, 6, 4))
		}
		for k := 0; k < 240; k++ {
			w.Shared = append(w.Shared, g.fresh(rng, 6+k%7, 6))
		}
	case warmRepeat:
		// A small working set compiled in set-up, then re-requested in a
		// skewed order: every block stitches from memory. The program at
		// rank i is requested in proportion to 1/sqrt(i), exactly, in a
		// shuffled order. Per-program cost differs by up to a third, so a
		// steeper skew over fewer programs lets the few seeded programs on
		// top set the result: 1/rank over 8 programs moved latency by 30%
		// from one seed to another on the same host.
		set := g.freshSet(rng, 16, 25, 6)
		w.Fill = set
		w.Pass = permute(rng, set)
		rank := permute(rng, set)
		total := 0.0
		for i := range rank {
			total += 1 / math.Sqrt(float64(i+1))
		}
		for i, prog := range rank {
			n := int(math.Round(1200 / math.Sqrt(float64(i+1)) / total))
			for k := 0; k < n; k++ {
				w.Shared = append(w.Shared, prog)
			}
		}
		w.Shared = permute(rng, w.Shared)
	case editStream:
		// Each client owns four programs and sends a cumulative chain of
		// one-line edits to each, one program after another. Each client
		// has its own seeded stream, so its content does not depend on
		// how clients interleave. Four programs, not one: the front end
		// re-runs on the whole program for every edit and its cost
		// differs by up to a third between programs, so with one
		// program a client the two seeded programs set the result.
		for c := 0; c < clients; c++ {
			crng := rand.New(rand.NewPCG(uint64(seed), uint64(c)+1))
			var lane []int
			for p := 0; p < 4; p++ {
				src := bench.MultiBlockSource(crng.Int64N(1<<40), 25, 5)
				w.Fill = append(w.Fill, g.add(src))
				for k := 0; k < 100; k++ {
					src = bench.MutateSource(src, crng.Int64N(1<<40))
					lane = append(lane, g.add(src))
				}
			}
			w.Lanes = append(w.Lanes, lane)
		}
	case diskSpill:
		// A working set about 3x the memory-tier caps (8 programs of 25
		// blocks against 64 entries), requested round-robin in a seeded
		// order. Between two requests for a program the other seven pass
		// through the LRU tiers, so every request rebuilds from disk and
		// the latency has one mode: a uniform random order would mix
		// memory hits and disk rebuilds, and the median would sit between
		// the two and jump with the hit ratio.
		w.MemEntries, w.DeltaEntries = 64, 64
		set := g.freshSet(rng, 8, 25, 6)
		w.Fill = set
		w.Pass = permute(rng, set)
		order := permute(rng, set)
		for k := 0; k < 60*len(order); k++ {
			w.Shared = append(w.Shared, order[k%len(order)])
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for _, src := range w.Sources {
		body, err := json.Marshal(server.CompileRequest{
			Source:  src,
			Machine: isdl.ExampleArchFullISDL,
			Unroll:  1,
			Preset:  "default",
		})
		if err != nil {
			return nil, fmt.Errorf("marshal request: %w", err)
		}
		w.Bodies = append(w.Bodies, body)
	}
	return w, nil
}

// generator interns program texts into Workload.Sources.
type generator struct {
	w     *Workload
	index map[string]int
}

// add returns the index of src, adding it when new.
func (g *generator) add(src string) int {
	if i, ok := g.index[src]; ok {
		return i
	}
	g.index[src] = len(g.w.Sources)
	g.w.Sources = append(g.w.Sources, src)
	return g.index[src]
}

// fresh draws a program not yet in the workload.
func (g *generator) fresh(rng *rand.Rand, blocks, ops int) int {
	for {
		src := bench.MultiBlockSource(rng.Int64N(1<<40), blocks, ops)
		if _, ok := g.index[src]; !ok {
			return g.add(src)
		}
	}
}

func (g *generator) freshSet(rng *rand.Rand, n, blocks, ops int) []int {
	set := make([]int, n)
	for i := range set {
		set[i] = g.fresh(rng, blocks, ops)
	}
	return set
}

func permute(rng *rand.Rand, xs []int) []int {
	out := append([]int(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
