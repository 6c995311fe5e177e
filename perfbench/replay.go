package main

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"

	"aviv"
	"aviv/internal/asm"
	"aviv/internal/cover"
	"aviv/internal/dataflow"
	"aviv/internal/diskcache"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/lang"
	"aviv/internal/opt"
	"aviv/internal/peephole"
	"aviv/internal/regalloc"
	"aviv/internal/server"
	"aviv/internal/sndag"
)

// replayer re-executes served requests one at a time through the
// layers' public functions, so each layer's time is measured on its own
// and attributed to one request. It follows the server's compile path
// with the delta engine on: the same front end, the same per-block
// keys, and a memory tier per cache with the server's caps over a disk
// tier of its own. The assembly it produces must be byte-identical to
// what the server sent.
type replayer struct {
	m        *isdl.Machine
	mfp      [sha256.Size]byte
	opts     aviv.Options
	store    *tracedStore
	coverMem *lru[*cover.Result]
	deltaMem *lru[*asm.Block]

	// tr receives spans; nil while replaying set-up.
	tr  *Tracer
	req int
	// counts of the request being replayed.
	counts replayCounts
}

// replayCounts are the work counts of one replayed request.
type replayCounts struct {
	assignments   int
	dagNodes      int
	peepholeSaved int
	optAlloc      uint64 // bytes allocated by opt.Optimize
}

func newReplayer(w *Workload, m *isdl.Machine, disk *diskcache.Cache) *replayer {
	opts := aviv.DefaultOptions()
	opts.Parallelism = 1
	return &replayer{
		m:        m,
		mfp:      m.Fingerprint(),
		opts:     opts,
		store:    newTracedStore(disk),
		coverMem: newLRU[*cover.Result](w.MemEntries),
		deltaMem: newLRU[*asm.Block](w.DeltaEntries),
	}
}

func (rp *replayer) begin(name string, parent int64) int64 {
	return rp.tr.Begin(name, rp.req, parent)
}

func (rp *replayer) end(id int64) { rp.tr.End(id) }

// request replays one /compile body and returns the assembly.
func (rp *replayer) request(id int, body []byte) (string, error) {
	rp.req, rp.counts = id, replayCounts{}
	rp.store.tr.Store(rp.tr)
	rp.store.req = id
	root := rp.begin("replay", 0)
	defer rp.end(root)

	s := rp.begin("server.json", root)
	var req server.CompileRequest
	err := json.Unmarshal(body, &req)
	rp.end(s)
	if err != nil {
		return "", fmt.Errorf("decode request: %w", err)
	}
	s = rp.begin("server.request_key", root)
	server.RequestKey(req)
	rp.end(s)

	s = rp.begin("lang.parse", root)
	ast, err := lang.Parse(req.Source)
	rp.end(s)
	if err != nil {
		return "", err
	}
	if req.Unroll > 1 {
		ast = lang.Unroll(ast, req.Unroll)
	}
	s = rp.begin("lang.lower", root)
	f, err := lang.Lower(ast, "main")
	rp.end(s)
	if err != nil {
		return "", err
	}
	// The replay runs alone, so the heap growth around the call is the
	// call's; the readings stay outside the span they measure.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s = rp.begin("opt.optimize", root)
	f = opt.Optimize(f)
	rp.end(s)
	runtime.ReadMemStats(&m1)
	rp.counts.optAlloc = m1.TotalAlloc - m0.TotalAlloc

	d := rp.begin("delta.compile", root)
	prog, err := rp.compile(f, d)
	rp.end(d)
	if err != nil {
		return "", err
	}

	s = rp.begin("asm.render", root)
	text := prog.String()
	rp.end(s)
	s = rp.begin("server.json", root)
	_, err = json.Marshal(server.CompileResponse{Assembly: text, CodeSize: prog.CodeSize(), Blocks: len(prog.Blocks)})
	rp.end(s)
	return text, err
}

// compile is the delta engine's Compile: liveness, placement, per-block
// context keys, a stitch or a recompile per block, then layout.
func (rp *replayer) compile(f *ir.Func, parent int64) (*asm.Program, error) {
	if err := f.Verify(); err != nil {
		return nil, err
	}
	s := rp.begin("dataflow.liveness", parent)
	live := dataflow.Liveness(f)
	liveOuts := live.OutSets()
	rp.end(s)
	opts := aviv.PlacementOptions(f, rp.m, rp.opts)
	prog := &asm.Program{Machine: rp.m}
	for i, b := range f.Blocks {
		o := opts.Cover
		o.LiveOut = liveOuts[i]
		var liveIn []string
		for _, v := range live.Vars {
			if live.LiveInOf(i, v) {
				liveIn = append(liveIn, v)
			}
		}
		s := rp.begin("cover.block_key", parent)
		base := cover.BlockKey(b, rp.mfp, o)
		rp.end(s)
		code, err := rp.block(b, o, base, contextKey(base, liveIn, opts.Peephole), opts.Peephole, parent)
		if err != nil {
			return nil, err
		}
		// Layout rewrites branches per program; the cached block stays
		// pristine.
		clone := *code
		prog.Blocks = append(prog.Blocks, &clone)
	}
	s = rp.begin("asm.layout", parent)
	aviv.LayoutProgram(prog)
	rp.end(s)
	return prog, nil
}

// block stitches one block from the delta memory tier, rebuilds it from
// the disk tier, or recompiles it, as the delta engine does.
func (rp *replayer) block(b *ir.Block, o cover.Options, base, key [sha256.Size]byte, peep bool, parent int64) (*asm.Block, error) {
	if code, ok := rp.deltaMem.get(key); ok {
		return code, nil
	}
	if data, ok := rp.get(key, parent); ok {
		if code, err := rp.rebuild(data, b, o, peep, parent); err == nil {
			rp.deltaMem.put(key, code)
			return code, nil
		}
		rp.store.Delete(key)
	}
	res, err := rp.cover(b, o, base, parent)
	if err != nil {
		return nil, err
	}
	code, err := rp.tail(res.Best, peep, parent)
	if err != nil {
		return nil, err
	}
	rp.deltaMem.put(key, code)
	s := rp.begin("cover.encode", parent)
	data, ok := cover.EncodeResult(res)
	rp.end(s)
	if ok {
		rp.put(key, data, parent)
	}
	return code, nil
}

// cover is cover.CoverBlock with its memory and disk tiers: the same
// keys, lookups and write-backs, with the DAG build, the covering
// search and the codec timed apart.
func (rp *replayer) cover(b *ir.Block, o cover.Options, base [sha256.Size]byte, parent int64) (*cover.Result, error) {
	if res, ok := rp.coverMem.get(base); ok {
		return res, nil
	}
	covered, pruned := b, 0
	if o.LiveOut != nil {
		covered, pruned = dataflow.PruneBlock(b, o.LiveOut)
	}
	dag, err := rp.build(covered, parent)
	if err != nil {
		return nil, err
	}
	if data, ok := rp.get(base, parent); ok {
		s := rp.begin("cover.decode", parent)
		res, err := cover.DecodeResult(data, dag)
		rp.end(s)
		if err == nil {
			res.PrunedStores = pruned
			rp.coverMem.put(base, res)
			return res, nil
		}
		rp.store.Delete(base)
	}
	s := rp.begin("cover.cover", parent)
	res, err := cover.CoverDAG(dag, o)
	rp.end(s)
	if err != nil {
		return nil, err
	}
	res.PrunedStores = pruned
	rp.counts.assignments += res.AssignmentsExplored
	rp.coverMem.put(base, res)
	s = rp.begin("cover.encode", parent)
	data, ok := cover.EncodeResult(res)
	rp.end(s)
	if ok {
		rp.put(base, data, parent)
	}
	return res, nil
}

// rebuild turns a persisted covering back into an emitted block.
func (rp *replayer) rebuild(data []byte, b *ir.Block, o cover.Options, peep bool, parent int64) (*asm.Block, error) {
	covered := b
	if o.LiveOut != nil {
		covered, _ = dataflow.PruneBlock(b, o.LiveOut)
	}
	dag, err := rp.build(covered, parent)
	if err != nil {
		return nil, err
	}
	s := rp.begin("cover.decode", parent)
	res, err := cover.DecodeResult(data, dag)
	rp.end(s)
	if err != nil {
		return nil, err
	}
	return rp.tail(res.Best, peep, parent)
}

func (rp *replayer) build(b *ir.Block, parent int64) (*sndag.DAG, error) {
	s := rp.begin("sndag.build", parent)
	dag, err := sndag.Build(b, rp.m)
	rp.end(s)
	if err == nil {
		rp.counts.dagNodes += dag.Counts.Total()
	}
	return dag, err
}

// tail runs the passes after covering: peephole, register allocation
// and emission.
func (rp *replayer) tail(sol *cover.Solution, peep bool, parent int64) (*asm.Block, error) {
	if peep {
		s := rp.begin("peephole.optimize", parent)
		before := sol.Cost()
		sol = peephole.Optimize(sol)
		rp.counts.peepholeSaved += before - sol.Cost()
		rp.end(s)
	}
	s := rp.begin("regalloc.allocate", parent)
	alloc, err := regalloc.Allocate(sol)
	rp.end(s)
	if err != nil {
		return nil, err
	}
	s = rp.begin("asm.emit", parent)
	code, err := asm.EmitBlock(sol, alloc)
	rp.end(s)
	return code, err
}

func (rp *replayer) get(key [sha256.Size]byte, parent int64) ([]byte, bool) {
	rp.store.parent = parent
	return rp.store.Get(key)
}

func (rp *replayer) put(key [sha256.Size]byte, data []byte, parent int64) {
	rp.store.parent = parent
	rp.store.Put(key, data)
}

// contextKey is the delta engine's per-block context fingerprint: the
// cover-level key, the sorted live-in variables and the peephole flag.
func contextKey(base [sha256.Size]byte, liveIn []string, peephole bool) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte("aviv-delta-ctx-v1"))
	h.Write(base[:])
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(liveIn)))
	h.Write(n[:])
	for _, v := range liveIn {
		binary.BigEndian.PutUint64(n[:], uint64(len(v)))
		h.Write(n[:])
		h.Write([]byte(v))
	}
	if peephole {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// lru is a bounded least-recently-used map, the shape of the server's
// memory tiers.
type lru[V any] struct {
	max   int
	order *list.List // front = most recently used
	items map[[sha256.Size]byte]*list.Element
}

type lruEntry[V any] struct {
	key [sha256.Size]byte
	val V
}

func newLRU[V any](max int) *lru[V] {
	return &lru[V]{max: max, order: list.New(), items: map[[sha256.Size]byte]*list.Element{}}
}

func (c *lru[V]) get(key [sha256.Size]byte) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

func (c *lru[V]) put(key [sha256.Size]byte, val V) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[V]{key, val})
	for c.max > 0 && len(c.items) > c.max {
		old := c.order.Back()
		c.order.Remove(old)
		delete(c.items, old.Value.(*lruEntry[V]).key)
	}
}
