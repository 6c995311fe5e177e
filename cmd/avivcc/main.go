// Command avivcc is the AVIV compiler driver (the paper's Fig. 1 flow):
// it compiles a mini-C source program for a target processor described in
// the ISDL-flavored format, emitting VLIW assembly, optionally a binary
// object, and optionally running the result on the instruction-level
// simulator.
//
//	avivcc -march machine.isdl prog.c
//	avivcc -march machine.isdl -unroll 2 -S prog.c        # assembly only
//	avivcc -march machine.isdl -o prog.avob prog.c        # binary object
//	avivcc -march machine.isdl -run -mem "a=3,b=4" prog.c # compile + simulate
//	avivcc -example                                       # built-in Fig. 3 machine
//	avivcc -exhaustive ...                                # heuristics off
//	avivcc -stats ...                                     # per-block statistics
//	avivcc -analyze prog.c                                # dataflow diagnostics (no machine needed)
//	avivcc -march machine.isdl -cache .avivcache prog.c   # incremental compile over a persistent per-block cache
//	avivcc -march machine.isdl -server http://host:8377 prog.c # compile via avivd
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"aviv"
	"aviv/internal/asm"
	"aviv/internal/cover"
	"aviv/internal/dataflow/diag"
	"aviv/internal/diskcache"
	"aviv/internal/isdl"
	"aviv/internal/lang"
	"aviv/internal/server"
	"aviv/internal/sim"
)

func main() {
	march := flag.String("march", "", "path to the ISDL machine description")
	example := flag.Bool("example", false, "use the built-in example architecture (Fig. 3 + compares)")
	regs := flag.Int("regs", 4, "registers per file for -example")
	unroll := flag.Int("unroll", 1, "loop unrolling factor (machine-independent front-end pass)")
	emitAsm := flag.Bool("S", true, "print assembly")
	out := flag.String("o", "", "write the assembled binary object to this file")
	run := flag.Bool("run", false, "simulate the compiled program")
	memFlag := flag.String("mem", "", "initial data memory for -run, e.g. \"a=3,b=4\"")
	exhaustive := flag.Bool("exhaustive", false, "disable the covering heuristics (paper's parenthesised mode)")
	place := flag.String("place", "", "variable memory placement, e.g. \"x=XM,c=YM\" (dual-memory machines)")
	stats := flag.Bool("stats", false, "print per-block code generation statistics and compile metrics")
	trace := flag.Bool("trace", false, "trace simulated instructions")
	parallel := flag.Int("parallel", 0, "block-compilation worker pool size (0 = GOMAXPROCS, 1 = serial; output is identical at any setting)")
	verifyFlag := flag.Bool("verify", false, "run the static translation validator on the compiled output (fails the compile on any violation)")
	analyze := flag.Bool("analyze", false, "run the global dataflow diagnostics on the lowered IR and print findings (no machine description needed)")
	cacheDir := flag.String("cache", "", "persistent per-block cache directory (created if missing): an edited recompile re-covers only changed blocks; an entry that fails to decode is deleted and its block recompiled, so stale entries cannot change output")
	serverURL := flag.String("server", "", "compile via a running avivd at this base URL (requires -march; falls back to a local compile if the server is unreachable or overloaded)")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "avivcc:", err)
		os.Exit(1)
	}

	if *analyze {
		// Diagnostics run on the unoptimized lowered IR — the optimizer
		// would remove exactly the defects (dead stores, unreachable
		// blocks) the programmer should hear about — and need no machine.
		if flag.NArg() != 1 {
			die(fmt.Errorf("need exactly one source file"))
		}
		src, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			die(err)
		}
		prog, err := lang.Parse(string(src))
		if err != nil {
			die(err)
		}
		if *unroll > 1 {
			prog = lang.Unroll(prog, *unroll)
		}
		f, err := lang.Lower(prog, "main")
		if err != nil {
			die(err)
		}
		rep := diag.Analyze(f)
		fmt.Print(rep.String())
		if *stats {
			fmt.Printf("; %s\n", rep.Metrics)
		}
		if rep.Metrics.Diagnostics > 0 {
			os.Exit(1)
		}
		return
	}

	var machine *isdl.Machine
	var machineText string
	switch {
	case *example:
		machine = isdl.ExampleArchFull(*regs)
	case *march != "":
		src, err := os.ReadFile(*march)
		if err != nil {
			die(err)
		}
		machineText = string(src)
		machine, err = aviv.LoadMachine(machineText)
		if err != nil {
			die(err)
		}
	default:
		die(fmt.Errorf("need -march <file> or -example"))
	}

	if flag.NArg() != 1 {
		die(fmt.Errorf("need exactly one source file"))
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		die(err)
	}

	if *serverURL != "" {
		// Thin-client mode: ship source + machine text to avivd and print
		// what comes back (byte-identical to a local compile). Falls
		// through to the local path only if the server cannot answer.
		if machineText == "" {
			die(fmt.Errorf("-server needs -march: the built-in -example machine has no ISDL text to send"))
		}
		if *out != "" || *run || *place != "" {
			die(fmt.Errorf("-o, -run, and -place are local-only; drop -server to use them"))
		}
		preset := "default"
		if *exhaustive {
			preset = "exhaustive"
		}
		resp, err := remoteCompile(*serverURL, server.CompileRequest{
			Source:  string(src),
			Machine: machineText,
			Unroll:  *unroll,
			Preset:  preset,
			Verify:  *verifyFlag,
		})
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "avivcc: server unavailable (%v), compiling locally\n", err)
		case resp.Error != "":
			// A deterministic compile failure: a local retry would fail
			// identically, so report it and stop.
			die(fmt.Errorf("server: %s", resp.Error))
		default:
			if *stats {
				fmt.Printf("; served compile: %d blocks, code size %d, %d memory hits, %d disk hits, deduped=%v\n",
					resp.Blocks, resp.CodeSize, resp.CacheHits, resp.DiskHits, resp.Deduped)
			}
			if *emitAsm {
				fmt.Print(resp.Assembly)
			}
			return
		}
	}

	opts := aviv.DefaultOptions()
	if *exhaustive {
		opts = aviv.ExhaustiveOptions()
	}
	opts.Parallelism = *parallel
	opts.Verify = *verifyFlag
	if *cacheDir != "" {
		disk, err := diskcache.Open(*cacheDir, 0)
		if err != nil {
			die(err)
		}
		opts.Cache = cover.NewBoundedCache(0)
		opts.DiskCache = disk
	}
	if *place != "" {
		placement := map[string]string{}
		for _, kv := range strings.Split(*place, ",") {
			parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
			if len(parts) != 2 {
				die(fmt.Errorf("bad -place entry %q", kv))
			}
			placement[parts[0]] = parts[1]
		}
		opts.Cover.VarPlacement = placement
	}
	res, err := aviv.CompileSource(string(src), machine, *unroll, opts)
	if err != nil {
		die(err)
	}
	prog := res.Program
	if *stats {
		fmt.Printf("; machine %s, code size %d instructions (incl. control flow)\n",
			machine.Name, res.CodeSize())
		for _, br := range res.Blocks {
			fmt.Printf("; block %-8s DAG %3d nodes -> SN-DAG %4d nodes, %2d instrs, %d spills, %d assignments explored, peephole saved %d\n",
				br.Block.Name, len(br.Block.Nodes), br.Metrics.DAGNodes,
				br.Metrics.Instructions, br.Metrics.Spills, br.Metrics.AssignmentsExplored, br.Metrics.PeepholeSaved)
		}
		for _, line := range strings.Split(strings.TrimRight(res.Metrics.String(), "\n"), "\n") {
			fmt.Printf("; %s\n", line)
		}
		printCacheStats(opts)
	}
	if *emitAsm {
		fmt.Print(prog.String())
	}
	if *out != "" {
		obj, err := asm.Encode(prog)
		if err != nil {
			die(err)
		}
		if err := os.WriteFile(*out, obj, 0o644); err != nil {
			die(err)
		}
		fmt.Fprintf(os.Stderr, "avivcc: wrote %s\n", *out)
	}
	if *run {
		mem, err := parseMem(*memFlag)
		if err != nil {
			die(err)
		}
		machineSim := sim.New(prog, mem)
		if *trace {
			machineSim.TraceFn = func(s string) { fmt.Fprintln(os.Stderr, s) }
		}
		if err := machineSim.Run(0); err != nil {
			die(err)
		}
		fmt.Printf("; simulated %d cycles\n", machineSim.Cycles)
		final := machineSim.Mem()
		keys := make([]string, 0, len(final))
		for k := range final {
			if !strings.HasPrefix(k, "$") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("; mem[%s] = %d\n", k, final[k])
		}
	}
}

// printCacheStats reports the per-block cache tiers: one memcache line
// and one disk line.
func printCacheStats(opts aviv.Options) {
	if opts.Cache != nil {
		cs := opts.Cache.Stats()
		fmt.Printf("; memcache: %d entries, %d hits, %d misses, %d evictions\n",
			cs.Entries, cs.Hits, cs.Misses, cs.Evictions)
	}
	if dc, ok := opts.DiskCache.(*diskcache.Cache); ok {
		ds := dc.Stats()
		fmt.Printf("; diskcache %s: %d hits, %d misses, %d writes, %d evictions, %d corrupt, %d bytes\n",
			dc.Dir(), ds.Hits, ds.Misses, ds.Writes, ds.Evictions, ds.Corrupt, ds.Bytes)
	}
}

// remoteCompile posts one compile request to an avivd at base. A non-nil
// error means the server could not answer (unreachable, shedding load,
// or timed out) and the caller should compile locally; deterministic
// compile failures instead arrive in-band in CompileResponse.Error.
func remoteCompile(base string, req server.CompileRequest) (*server.CompileResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	httpResp, err := client.Post(strings.TrimRight(base, "/")+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 256))
		return nil, fmt.Errorf("%s: %s", httpResp.Status, strings.TrimSpace(string(msg)))
	}
	var resp server.CompileResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func parseMem(s string) (map[string]int64, error) {
	mem := map[string]int64{}
	if s == "" {
		return mem, nil
	}
	for _, kv := range strings.Split(s, ",") {
		parts := strings.SplitN(strings.TrimSpace(kv), "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -mem entry %q", kv)
		}
		v, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -mem value %q: %w", kv, err)
		}
		mem[parts[0]] = v
	}
	return mem, nil
}
