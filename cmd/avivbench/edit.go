package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/isdl"
	"aviv/internal/metrics"
)

// editReport is the machine-readable -editjson output (BENCH_edit.json):
// the incremental-compilation study over an edit stream of one-line
// mutations, comparing a from-scratch recompile against a compile over
// a warm per-block cache at every step.
type editReport struct {
	Benchmark     string  `json:"benchmark"`
	Programs      int     `json:"programs"`
	EditsPerProg  int     `json:"edits_per_program"`
	BlocksPerProg int     `json:"blocks_per_program"`
	ColdP50Ms     float64 `json:"cold_p50_ms"`
	ColdP95Ms     float64 `json:"cold_p95_ms"`
	EditP50Ms     float64 `json:"edit_p50_ms"`
	EditP95Ms     float64 `json:"edit_p95_ms"`
	SpeedupP50    float64 `json:"speedup_p50"`
	SpeedupP95    float64 `json:"speedup_p95"`
	// BlocksRecompiled / BlocksTotal over every edit compile: the
	// fraction of the program the incremental compile actually
	// re-covers per one-line edit.
	BlocksTotal      int                `json:"blocks_total"`
	BlocksRecompiled int                `json:"blocks_recompiled"`
	RecompiledRatio  float64            `json:"recompiled_ratio"`
	Delta            metrics.CacheStats `json:"delta"`
}

// editStudy measures the incremental path the per-block cache exists
// for: a developer edit loop. Each program is compiled once to warm a
// per-program memory tier, then nEdits cumulative one-line mutations
// are applied; every step is compiled both from scratch (cold) and over
// the warm tier (edit), and the outputs are byte-compared before any
// latency is reported. With jsonPath non-empty the report is also
// written as JSON (BENCH_edit.json).
func editStudy(jsonPath string, nPrograms, nEdits int) error {
	if nPrograms < 1 {
		nPrograms = 1
	}
	if nEdits < 1 {
		nEdits = 1
	}
	machine, err := isdl.Parse(isdl.ExampleArchFullISDL)
	if err != nil {
		return err
	}
	opts := aviv.DefaultOptions()

	var coldLat, editLat []time.Duration
	var agg metrics.CacheStats
	blocksPer, blocksTotal, blocksRecompiled := 0, 0, 0
	for p := 0; p < nPrograms; p++ {
		src := bench.MultiBlockSource(int64(p+1), 25, 12)
		warm := opts
		warm.Cache = cover.NewBoundedCache(0)
		first, err := aviv.CompileSource(src, machine, 1, warm)
		if err != nil {
			return fmt.Errorf("program %d warmup: %w", p, err)
		}
		agg.Add(first.Metrics.Reuse())
		for e := 0; e < nEdits; e++ {
			src = bench.MutateSource(src, int64(p*1000+e))

			t0 := time.Now()
			cold, err := aviv.CompileSource(src, machine, 1, opts)
			if err != nil {
				return fmt.Errorf("program %d edit %d cold: %w", p, e, err)
			}
			coldLat = append(coldLat, time.Since(t0))

			t0 = time.Now()
			inc, err := aviv.CompileSource(src, machine, 1, warm)
			if err != nil {
				return fmt.Errorf("program %d edit %d incremental: %w", p, e, err)
			}
			editLat = append(editLat, time.Since(t0))

			if inc.Program.String() != cold.Program.String() {
				return fmt.Errorf("program %d edit %d: incremental output differs from scratch compile", p, e)
			}
			reuse := inc.Metrics.Reuse()
			agg.Add(reuse)
			blocksPer = len(inc.Blocks)
			blocksTotal += len(inc.Blocks)
			blocksRecompiled += int(reuse.Recompiled)
		}
		st := warm.Cache.Stats()
		agg.Entries += int64(st.Entries)
		agg.Evictions += st.Evictions
	}

	report := editReport{
		Benchmark:        "EditMultiBlock",
		Programs:         nPrograms,
		EditsPerProg:     nEdits,
		BlocksPerProg:    blocksPer,
		ColdP50Ms:        percentileMs(coldLat, 0.50),
		ColdP95Ms:        percentileMs(coldLat, 0.95),
		EditP50Ms:        percentileMs(editLat, 0.50),
		EditP95Ms:        percentileMs(editLat, 0.95),
		BlocksTotal:      blocksTotal,
		BlocksRecompiled: blocksRecompiled,
		Delta:            agg,
	}
	if report.EditP50Ms > 0 {
		report.SpeedupP50 = report.ColdP50Ms / report.EditP50Ms
	}
	if report.EditP95Ms > 0 {
		report.SpeedupP95 = report.ColdP95Ms / report.EditP95Ms
	}
	if blocksTotal > 0 {
		report.RecompiledRatio = float64(blocksRecompiled) / float64(blocksTotal)
	}

	fmt.Printf("==== Incremental compile study (%d programs x %d blocks, %d one-line edits each) ====\n",
		nPrograms, blocksPer, nEdits)
	fmt.Printf("cold full recompile: p50 %8.2f ms   p95 %8.2f ms\n", report.ColdP50Ms, report.ColdP95Ms)
	fmt.Printf("warm edit compile:   p50 %8.2f ms   p95 %8.2f ms\n", report.EditP50Ms, report.EditP95Ms)
	fmt.Printf("speedup: %.1fx at p50, %.1fx at p95; %d/%d blocks recompiled (ratio %.3f)\n",
		report.SpeedupP50, report.SpeedupP95, blocksRecompiled, blocksTotal, report.RecompiledRatio)
	fmt.Printf("%s\n", agg.String())
	fmt.Println("(every incremental output verified byte-identical to the from-scratch compile)")

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
