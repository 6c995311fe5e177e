// Package aviv is a reproduction of the AVIV retargetable code generator
// (Hanono & Devadas, DAC 1998). It compiles basic-block expression DAGs
// onto user-described VLIW/ILP target processors, optimizing for minimum
// code size by performing instruction selection, resource allocation, and
// scheduling concurrently over a Split-Node DAG.
//
// The high-level flow mirrors the paper's Fig. 1:
//
//	source (mini-C) ──lang──▶ ir.Func (basic-block DAGs + control flow)
//	ISDL description ──isdl──▶ machine model + databases
//	per block: sndag.Build ──▶ Split-Node DAG
//	           cover.CoverDAG ─▶ concurrent selection/allocation/scheduling
//	           regalloc.Allocate ─▶ detailed register allocation
//	           peephole.Optimize ─▶ spill cleanup + schedule compaction
//	           asm.EmitBlock ──▶ VLIW assembly
//	asm.Encode ──▶ binary object ──sim──▶ instruction-level simulation
package aviv

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aviv/internal/asm"
	"aviv/internal/cover"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/lang"
	"aviv/internal/metrics"
	"aviv/internal/opt"
	"aviv/internal/peephole"
	"aviv/internal/place"
	"aviv/internal/regalloc"
	"aviv/internal/verify"
)

// Options configure compilation.
type Options struct {
	// Cover tunes the concurrent covering step (beam width, heuristics).
	// Compile ignores Cover.LiveOut: it compiles every store it is
	// given, and dead-store elimination happens in opt.Optimize.
	Cover cover.Options
	// Peephole enables the post-register-allocation cleanup pass
	// (Sec. IV-G): removal of unnecessary loads/spills and schedule
	// compaction.
	Peephole bool
	// AutoPlace runs the memory-bank placement pass (package place) on
	// machines with multiple data memories, assigning variables so
	// co-accessed operands load from different banks. Explicit
	// Cover.VarPlacement entries win over the automatic assignment.
	AutoPlace bool
	// Parallelism bounds the worker pool that compiles basic blocks
	// concurrently: <= 0 selects GOMAXPROCS, 1 forces the serial path.
	// Per-block covering is independent (the paper's Sec. IV algorithm
	// is per-block), so the emitted program is byte-for-byte identical
	// at every setting; only wall time changes. When Cover.Trace is set
	// the pool is forced serial so trace lines keep their order.
	Parallelism int
	// Verify runs the static translation validator (internal/verify) on
	// the compiled output: source IR, per-block schedule/allocation, and
	// post-layout control flow are re-checked against the machine
	// description, and Compile fails with a *verify.VerifyError when any
	// invariant is violated.
	Verify bool
	// Cache, when non-nil, is the per-block memory tier shared across
	// Compile calls (cover.NewBoundedCache): it holds each block's
	// finished code under a key covering everything that code depends
	// on (see domainKey), so recompiling an unchanged block skips
	// covering, peephole, register allocation and emission. Emitted
	// programs are byte-identical with and without it.
	Cache *cover.Cache
	// DiskCache, when non-nil, is the persistent tier below Cache
	// (internal/diskcache): it holds the same finished code, encoded
	// with its effort counters, under the same key, so a block missing
	// from memory is decoded instead of compiled, across process
	// restarts too. Like Cache, it cannot change output: an entry that
	// fails to decode (a stale version, or one naming a unit, bus or
	// register the machine does not have) is deleted and the block
	// recompiled.
	DiskCache cover.EntryStore
}

// DefaultOptions returns the paper's heuristics-on configuration with the
// peephole pass enabled.
func DefaultOptions() Options {
	return Options{Cover: cover.DefaultOptions(), Peephole: true, AutoPlace: true}
}

// ExhaustiveOptions returns the heuristics-off configuration of the
// paper's parenthesised result columns.
func ExhaustiveOptions() Options {
	return Options{Cover: cover.ExhaustiveOptions(), Peephole: true, AutoPlace: true}
}

// LoadMachine parses a textual ISDL-flavored machine description.
func LoadMachine(src string) (*isdl.Machine, error) { return isdl.Parse(src) }

// BlockResult is the compilation outcome for one basic block.
//
// Covering, Solution and Allocation are set only when this call covered
// the block. A block reused from a cache tier carries its code and the
// effort counters of the compile that produced it, and leaves the three
// nil.
type BlockResult struct {
	Block *ir.Block
	// Covering is the raw pre-peephole result of cover.CoverBlock.
	// Covering.DAG is the Split-Node DAG (node counts reproduce the
	// paper's "#Nodes" columns).
	Covering *cover.Result
	// Solution is the post-peephole covering everything downstream
	// consumes (instruction count = code size metric).
	Solution *cover.Solution
	// Allocation is the detailed register allocation.
	Allocation *regalloc.Allocation
	// Code is the emitted assembly block.
	Code *asm.Block
	// Metrics is the block's one record of effort counters and
	// per-phase timings; CompileResult.Metrics.Blocks is built from it.
	Metrics metrics.BlockMetrics
}

// CompileResult is a fully compiled function.
type CompileResult struct {
	Func    *ir.Func
	Machine *isdl.Machine
	Program *asm.Program
	Blocks  []*BlockResult
	// Metrics aggregates per-block effort, per-phase timings, and the
	// worker-pool utilization of the compile.
	Metrics *metrics.CompileMetrics
}

// CodeSize returns the total program code size in instructions,
// including control-flow instructions.
func (r *CompileResult) CodeSize() int { return r.Program.CodeSize() }

// CompileBlock compiles a single basic block from scratch — covering,
// peephole, register allocation, emission — consulting no cache tier,
// and records per-phase timings and effort counters in the result's
// Metrics.
func CompileBlock(b *ir.Block, m *isdl.Machine, opts Options) (*BlockResult, error) {
	total := metrics.StartTimer()
	bm := metrics.BlockMetrics{Block: b.Name}
	res, err := cover.CoverBlock(b, m, opts.Cover)
	if err != nil {
		return nil, fmt.Errorf("aviv: block %s: %w", b.Name, err)
	}
	bm.Cover = total.Elapsed()
	sol := res.Best
	if opts.Peephole {
		phase := metrics.StartTimer()
		before := sol.Cost()
		sol = peephole.Optimize(sol)
		bm.PeepholeSaved = before - sol.Cost()
		bm.Peephole = phase.Elapsed()
	}
	phase := metrics.StartTimer()
	alloc, err := regalloc.Allocate(sol)
	if err != nil {
		return nil, fmt.Errorf("aviv: block %s: %w", b.Name, err)
	}
	bm.Regalloc = phase.Elapsed()
	phase = metrics.StartTimer()
	code, err := asm.EmitBlock(sol, alloc)
	if err != nil {
		return nil, fmt.Errorf("aviv: block %s: %w", b.Name, err)
	}
	bm.Emit = phase.Elapsed()
	bm.DAGNodes = res.DAG.Counts.Total()
	bm.Instructions = sol.Cost()
	bm.Spills = sol.SpillCount
	bm.AssignmentsExplored = res.AssignmentsExplored
	bm.PrunedAssignments = res.PrunedAssignments
	bm.Total = total.Elapsed()
	return &BlockResult{
		Block:      b,
		Covering:   res,
		Solution:   sol,
		Allocation: alloc,
		Code:       code,
		Metrics:    bm,
	}, nil
}

// ResolveParallelism maps a Parallelism setting to a concrete worker
// count: <= 0 selects GOMAXPROCS, anything else is taken as-is. This is
// the single defaulting rule — the block worker pool (poolSize) and the
// avivd server pool both resolve through it, so they cannot drift.
func ResolveParallelism(par int) int {
	if par <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return par
}

// PlacementOptions resolves the AutoPlace pass into concrete
// Cover.VarPlacement entries for one function: on machines with more
// than one data memory the automatic bank assignment (package place) is
// merged under any explicit entries, which win. The returned Options
// are what the per-block pipeline actually keys and compiles against.
// (place.Assign is a function of the whole ir.Func: an edit anywhere
// can move a variable to another bank, which then shows up in every
// affected block's options fingerprint.)
func PlacementOptions(f *ir.Func, m *isdl.Machine, opts Options) Options {
	if opts.AutoPlace && len(m.Memories) > 1 {
		auto := place.Assign(f, m)
		merged := make(map[string]string, len(auto)+len(opts.Cover.VarPlacement))
		for k, v := range auto {
			merged[k] = v
		}
		for k, v := range opts.Cover.VarPlacement {
			merged[k] = v // explicit placement wins
		}
		opts.Cover.VarPlacement = merged
	}
	return opts
}

// poolSize resolves Options.Parallelism to a concrete worker count for a
// function with nBlocks basic blocks.
func (o Options) poolSize(nBlocks int) int {
	par := ResolveParallelism(o.Parallelism)
	if par > nBlocks {
		par = nBlocks
	}
	if par < 1 {
		par = 1
	}
	if o.Cover.Trace != nil {
		par = 1 // keep trace lines in covering order
	}
	return par
}

// Compile compiles a whole function: every basic block through the
// concurrent covering pipeline, plus one control-flow instruction per
// block terminator (Sec. III-C).
//
// Compile compiles the IR as given. Machine-independent cleanup, global
// dead-store elimination included, is the front end's job: CompileSource
// and ParseAndLower run opt.Optimize first, and a caller that hands in
// unoptimized IR gets its dead stores compiled.
//
// Blocks are compiled by a bounded worker pool (Options.Parallelism;
// per-block covering dominates compile time and is independent across
// blocks) and reassembled in original block order, so the result is
// byte-for-byte identical to the serial Parallelism=1 path. On error the
// first failing block in original block order is reported, also
// regardless of parallelism.
//
// Compile is also the incremental path: with Options.Cache or
// Options.DiskCache set, every block whose key is unchanged since an
// earlier compile is reused from the tiers instead of re-covered (see
// blockCache), and the output stays byte-identical.
func Compile(f *ir.Func, m *isdl.Machine, opts Options) (*CompileResult, error) {
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("aviv: %w", err)
	}
	if opts.Verify {
		if verr := verify.Func(f); verr != nil {
			return nil, fmt.Errorf("aviv: source IR rejected by verifier: %w", verr)
		}
	}
	opts = PlacementOptions(f, m, opts)
	opts.Cover.LiveOut = nil // ignored: the block key has no live-out part
	tiers := newBlockCache(m, opts)
	par := opts.poolSize(len(f.Blocks))
	wall := metrics.StartTimer()
	results := make([]*BlockResult, len(f.Blocks))
	errs := make([]error, len(f.Blocks))
	// busy[w] has one writer, worker w, and is read after wg.Wait.
	busy := make([]time.Duration, par)
	var next atomic.Int64
	work := func(worker int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(f.Blocks) {
				return
			}
			br, err := tiers.compile(f.Blocks[i], m, opts)
			if err != nil {
				errs[i] = err
				continue
			}
			br.Metrics.Worker = worker
			busy[worker] += br.Metrics.Total
			results[i] = br
		}
	}
	// Worker 0 is the caller's goroutine; at Parallelism 1 no goroutine
	// is started.
	var wg sync.WaitGroup
	for w := 1; w < par; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			work(worker)
		}(w)
	}
	work(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := &CompileResult{
		Func:    f,
		Machine: m,
		Program: &asm.Program{Machine: m},
	}
	for _, br := range results {
		out.Blocks = append(out.Blocks, br)
		out.Program.Blocks = append(out.Program.Blocks, br.Code)
	}
	LayoutProgram(out.Program)
	var verr *verify.VerifyError
	if opts.Verify {
		verr = verifyResult(out)
	}
	out.Metrics = &metrics.CompileMetrics{
		Blocks:      make([]metrics.BlockMetrics, len(results)),
		Parallelism: par,
		Wall:        wall.Elapsed(),
		WorkerBusy:  busy,
	}
	for i, br := range results {
		out.Metrics.Blocks[i] = br.Metrics
	}
	if verr != nil {
		return out, fmt.Errorf("aviv: translation validation failed: %w", verr)
	}
	return out, nil
}

// verifyResult runs the static translation validator over the laid-out
// program, recording per-block verify time and violation counts in the
// block metrics. Layout- and program-level violations are charged to the
// block they name when it exists.
//
// Each block's code is validated against br.Block, the current source
// block: a reused block has no solution of its own, so fresh and reused
// blocks get the same check against what this compile was asked to
// build.
func verifyResult(out *CompileResult) *verify.VerifyError {
	byName := make(map[string]*BlockResult, len(out.Blocks))
	var all []verify.Violation
	for _, br := range out.Blocks {
		byName[br.Code.Name] = br
		t := metrics.StartTimer()
		vs := verify.BlockCode(br.Code, out.Machine, br.Block)
		br.Metrics.Verify = t.Elapsed()
		br.Metrics.Violations = len(vs)
		all = append(all, vs...)
	}
	for _, v := range verify.Layout(out.Program, out.Func) {
		if br := byName[v.Block]; br != nil {
			br.Metrics.Violations++
		}
		all = append(all, v)
	}
	if len(all) == 0 {
		return nil
	}
	return &verify.VerifyError{Violations: all}
}

// LayoutProgram orders the program's blocks to maximize fallthroughs,
// converting unconditional jumps to implicit falls when the target can be
// placed immediately after — a code-size optimization in the same spirit
// as the paper's minimum-size objective (each eliminated jump is one
// fewer ROM word).
//
// Layout is a whole-program decision: it mutates each block's Branch in
// place depending on which block happens to follow it. Cached per-block
// artifacts must therefore be pre-layout (the memory tier hands out
// clones of pristine blocks and Compile re-runs LayoutProgram on every
// compile — that is how "predecessors' layout assumptions" stay out of
// the per-block cache keys).
func LayoutProgram(p *asm.Program) {
	if len(p.Blocks) == 0 {
		return
	}
	byName := make(map[string]*asm.Block, len(p.Blocks))
	for _, b := range p.Blocks {
		byName[b.Name] = b
	}
	placed := make(map[string]bool, len(p.Blocks))
	var order []*asm.Block
	place := func(b *asm.Block) {
		order = append(order, b)
		placed[b.Name] = true
	}
	// Greedy chaining from the entry: follow jump/fallthrough targets.
	for _, start := range p.Blocks {
		if placed[start.Name] {
			continue
		}
		cur := start
		for cur != nil && !placed[cur.Name] {
			place(cur)
			var nextName string
			switch cur.Branch.Kind {
			case asm.BranchJump, asm.BranchNone:
				nextName = cur.Branch.Target
			case asm.BranchCond:
				// Chain the else arm: the taken branch needs its explicit
				// target anyway.
				nextName = cur.Branch.Else
			}
			if nextName == "" || placed[nextName] {
				break
			}
			cur = byName[nextName]
		}
	}
	// Convert jumps-to-next into fallthroughs — and the reverse: an
	// implicit fall whose target did not end up adjacent (its chain was
	// entered from elsewhere first) must become an explicit jump, or the
	// program would fall into the wrong block on real hardware.
	for i, b := range order {
		next := ""
		if i+1 < len(order) {
			next = order[i+1].Name
		}
		switch b.Branch.Kind {
		case asm.BranchJump:
			if b.Branch.Target == next {
				b.Branch = asm.Branch{Kind: asm.BranchNone, Target: b.Branch.Target}
			}
		case asm.BranchNone:
			if b.Branch.Target != "" && b.Branch.Target != next {
				b.Branch = asm.Branch{Kind: asm.BranchJump, Target: b.Branch.Target}
			}
		}
	}
	p.Blocks = order
}

// CompileSource compiles a mini-C source program end to end: parse,
// optional loop unrolling by unrollFactor (0 or 1 disables; the paper's
// Ex3–Ex5 use 2), lowering to basic-block DAGs, machine-independent
// optimization (ParseAndLower), and retargetable code generation
// (Compile).
func CompileSource(src string, m *isdl.Machine, unrollFactor int, opts Options) (*CompileResult, error) {
	f, err := ParseAndLower(src, unrollFactor)
	if err != nil {
		return nil, err
	}
	return Compile(f, m, opts)
}

// ParseAndLower exposes the front-end half of CompileSource for tools
// that want the optimized IR without generating code.
func ParseAndLower(src string, unrollFactor int) (*ir.Func, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	if unrollFactor > 1 {
		prog = lang.Unroll(prog, unrollFactor)
	}
	f, err := lang.Lower(prog, "main")
	if err != nil {
		return nil, err
	}
	return opt.Optimize(f), nil
}
