// Tests of the per-block cache tiers behind aviv.Compile: reuse from
// memory, rebuilds from disk, deletion-as-miss, eviction, and tracing.
package aviv_test

import (
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/diskcache"
	"aviv/internal/isdl"
	"aviv/internal/lang"
	"aviv/internal/zoo"
)

// mapStore is a map-backed cover.DeletableStore that counts its calls.
type mapStore struct {
	mu                  sync.Mutex
	m                   map[[sha256.Size]byte][]byte
	gets, puts, deletes int
}

func newMapStore() *mapStore { return &mapStore{m: make(map[[sha256.Size]byte][]byte)} }

func (s *mapStore) Get(key [sha256.Size]byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	data, ok := s.m[key]
	return data, ok
}

func (s *mapStore) Put(key [sha256.Size]byte, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	s.m[key] = data
}

func (s *mapStore) Delete(key [sha256.Size]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deletes++
	delete(s.m, key)
}

// corrupt replaces every stored entry with bytes that read back but no
// longer decode, standing in for codec version skew.
func (s *mapStore) corrupt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.m {
		s.m[k] = []byte("not a covering")
	}
}

// downgrade rewrites the leading version varint of every stored entry
// to v, standing in for entries an older build wrote under the same
// keys.
func (s *mapStore) downgrade(v uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, data := range s.m {
		_, n := binary.Uvarint(data)
		s.m[k] = append(binary.AppendUvarint(nil, v), data[n:]...)
	}
}

func verifyOpts() aviv.Options {
	opts := aviv.DefaultOptions()
	opts.Verify = true
	return opts
}

// scratch compiles src with no cache tiers, as the reference.
func scratch(t *testing.T, src string, m *isdl.Machine, opts aviv.Options) string {
	t.Helper()
	opts.Cache, opts.DiskCache = nil, nil
	res, err := aviv.CompileSource(src, m, 1, opts)
	if err != nil {
		t.Fatalf("scratch compile failed: %v", err)
	}
	return res.Program.String()
}

// mustCompile compiles src, checks it against scratch and the oracle,
// and returns the result.
func mustCompile(t *testing.T, src string, m *isdl.Machine, opts aviv.Options) *aviv.CompileResult {
	t.Helper()
	res, err := aviv.CompileSource(src, m, 1, opts)
	if err != nil {
		t.Fatalf("compile failed: %v", err)
	}
	if got, want := res.Program.String(), scratch(t, src, m, opts); got != want {
		t.Fatalf("cached output differs from scratch:\n%s\nvs\n%s", got, want)
	}
	checkOracle(t, res, editOracle)
	return res
}

// TestIncrementalByteIdenticalAndReused pins the core contract: a first
// compile over an empty memory tier matches an uncached compile byte for
// byte, and a second compile of the same program reuses every block from
// memory and still matches.
func TestIncrementalByteIdenticalAndReused(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	opts := verifyOpts()
	opts.Cache = cover.NewBoundedCache(0)
	src := bench.MultiBlockSource(7, 12, 6)

	cold := mustCompile(t, src, m, opts)
	n := int64(len(cold.Blocks))
	first := cold.Metrics.Reuse()
	if first.Recompiled != n || first.Stitched != 0 {
		t.Fatalf("cold compile: %+v, want all %d blocks recompiled", first, n)
	}
	second := mustCompile(t, src, m, opts).Metrics.Reuse()
	if second.MemHits != n || second.Recompiled != 0 {
		t.Fatalf("warm compile: %+v, want all %d blocks from memory", second, n)
	}
	if st := opts.Cache.Stats(); st.Hits != second.MemHits || st.Misses != first.MemMisses {
		t.Fatalf("cache stats %+v disagree with the compiles (%+v, %+v)", st, first, second)
	}
}

// TestIncrementalEditRecompilesOnlyChangedBlocks pins the point of the
// whole path: after a one-line edit, most blocks are reused and the
// output still matches an uncached compile of the edited program.
func TestIncrementalEditRecompilesOnlyChangedBlocks(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	opts := verifyOpts()
	opts.Cache = cover.NewBoundedCache(0)
	src := bench.MultiBlockSource(3, 15, 6)
	mustCompile(t, src, m, opts)
	edited := bench.MutateSource(src, 42)
	if edited == src {
		t.Fatalf("MutateSource returned the source unchanged")
	}
	r := mustCompile(t, edited, m, opts).Metrics.Reuse()
	if r.Stitched == 0 {
		t.Fatalf("one-line edit reused no blocks at all: %+v", r)
	}
	if r.Recompiled == 0 {
		t.Fatalf("one-line edit recompiled nothing — the edit did not reach the IR?")
	}
	if r.Recompiled >= r.Stitched {
		t.Fatalf("one-line edit recompiled %d blocks and reused %d; the cache is not localizing the edit",
			r.Recompiled, r.Stitched)
	}
}

// TestIncrementalDiskTier proves blocks survive restarts through the
// persistent tier: the first compile writes each block exactly once, and
// a fresh memory tier over the same directory rebuilds every block from
// disk without covering and without writing.
func TestIncrementalDiskTier(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	opts := verifyOpts()
	src := bench.MultiBlockSource(11, 12, 6)
	disk, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache, opts.DiskCache = cover.NewBoundedCache(0), disk
	cold := mustCompile(t, src, m, opts)
	if w := disk.Stats().Writes; w != int64(len(cold.Blocks)) {
		t.Fatalf("cold compile wrote %d disk entries for %d blocks, want one each", w, len(cold.Blocks))
	}

	opts.Cache = cover.NewBoundedCache(0)
	r := mustCompile(t, src, m, opts).Metrics.Reuse()
	if r.DiskHits != int64(len(cold.Blocks)) || r.Recompiled != 0 {
		t.Fatalf("restart: %+v, want all %d blocks from disk", r, len(cold.Blocks))
	}
	if w := disk.Stats().Writes; w != int64(len(cold.Blocks)) {
		t.Fatalf("restart wrote to disk: %d writes in total, want %d", w, len(cold.Blocks))
	}
}

// TestIncrementalInvalidation: entries that read back but fail to
// decode — garbage, or a version-2 entry (the pre-peephole covering an
// older build wrote under the same key) — are deleted
// (deletion-as-miss), counted, and the blocks recompiled and
// rewritten, output unchanged; the next compile rebuilds every block
// from the rewritten entries.
func TestIncrementalInvalidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(*mapStore)
	}{
		{"garbage", (*mapStore).corrupt},
		{"codec-v2", func(s *mapStore) { s.downgrade(2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := isdl.ExampleArchFull(4)
			opts := verifyOpts()
			src := bench.MultiBlockSource(5, 9, 5)
			store := newMapStore()
			opts.DiskCache = store
			n := len(mustCompile(t, src, m, opts).Blocks)
			tc.spoil(store)
			store.puts = 0

			r := mustCompile(t, src, m, opts).Metrics.Reuse()
			if r.Recompiled != int64(n) || r.Invalidations != int64(n) {
				t.Fatalf("over a spoiled store: %+v, want all %d blocks invalidated and recompiled", r, n)
			}
			if store.deletes != n || store.puts != n {
				t.Fatalf("store deletes = %d, puts = %d; want %d each", store.deletes, store.puts, n)
			}
			if r := mustCompile(t, src, m, opts).Metrics.Reuse(); r.DiskHits != int64(n) {
				t.Fatalf("after the rewrite: %+v, want all %d blocks from disk", r, n)
			}
		})
	}
}

// TestIncrementalParallelismByteIdentical: the worker pool may never
// change output — including half-warm states where some blocks are
// reused and others recompile concurrently.
func TestIncrementalParallelismByteIdentical(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	base := bench.MultiBlockSource(9, 15, 6)
	edited := bench.MutateSource(base, 1)
	for _, par := range []int{1, 8} {
		opts := verifyOpts()
		opts.Parallelism = par
		opts.Cache = cover.NewBoundedCache(0)
		for _, src := range []string{base, edited} {
			mustCompile(t, src, m, opts)
		}
	}
}

// TestIncrementalConcurrentReuse: compiles sharing one warm memory tier
// run concurrently and must all match. Layout rewrites branches, so each
// compile must lay out its own copy of a cached block; under -race this
// is the data-race gate for that.
func TestIncrementalConcurrentReuse(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	opts := aviv.DefaultOptions()
	opts.Cache = cover.NewBoundedCache(0)
	src := bench.MultiBlockSource(6, 12, 5)
	want := mustCompile(t, src, m, opts).Program.String()
	var wg sync.WaitGroup
	got := make([]string, 4)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := aviv.CompileSource(src, m, 1, opts)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = res.Program.String()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || got[i] != want {
			t.Fatalf("concurrent compile %d: err %v, output matches: %v", i, errs[i], got[i] == want)
		}
	}
}

// TestIncrementalBoundedEviction: the memory tier respects its entry cap.
func TestIncrementalBoundedEviction(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	opts := verifyOpts()
	opts.Cache = cover.NewBoundedCache(4)
	res := mustCompile(t, bench.MultiBlockSource(2, 15, 5), m, opts)
	if len(res.Blocks) <= 4 {
		t.Fatalf("workload too small to exercise eviction: %d blocks", len(res.Blocks))
	}
	st := opts.Cache.Stats()
	if st.Entries != 4 {
		t.Fatalf("entries = %d, want cap 4", st.Entries)
	}
	if st.Evictions != int64(len(res.Blocks))-4 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, len(res.Blocks)-4)
	}
}

// TestTraceBypassesWarmCache: Trace on a warm cache still prints the
// full covering log, and touches neither tier.
func TestTraceBypassesWarmCache(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	src := bench.MultiBlockSource(4, 6, 4)
	traced := func(opts aviv.Options) (string, *aviv.CompileResult) {
		t.Helper()
		opts.Cover.Trace = &cover.Trace{}
		res, err := aviv.CompileSource(src, m, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		return opts.Cover.Trace.String(), res
	}
	want, _ := traced(aviv.DefaultOptions())
	if !strings.Contains(want, "assignment") {
		t.Fatalf("uncached trace looks empty:\n%s", want)
	}

	opts := aviv.DefaultOptions()
	opts.Cache, opts.DiskCache = cover.NewBoundedCache(0), newMapStore()
	mustCompile(t, src, m, opts)
	before := opts.Cache.Stats()
	got, res := traced(opts)
	if got != want {
		t.Fatalf("trace over a warm cache differs from the uncached trace:\n%s\nvs\n%s", got, want)
	}
	if res.Metrics.CacheHits() != 0 {
		t.Fatalf("traced compile reused %d blocks", res.Metrics.CacheHits())
	}
	store := opts.DiskCache.(*mapStore)
	if after := opts.Cache.Stats(); after != before || store.gets != len(res.Blocks) {
		t.Fatalf("traced compile touched the tiers: cache %+v -> %+v, %d store gets", before, after, store.gets)
	}
}

// TestDiskRoundTripKeepsMetrics: a block rebuilt from disk reports the
// same effort counters as its fresh compile, block by block — the
// covering's search counters and the peephole's saving travel in the
// entry, the DAG size is re-derived — and spends no time in the
// peephole it no longer runs. The source is lowered without
// opt.Optimize, so its dead store reaches the covering.
func TestDiskRoundTripKeepsMetrics(t *testing.T) {
	tiny, err := zoo.One(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Class != zoo.ClassTinyRegs {
		t.Fatalf("zoo slot 8 is %s, want %s", tiny.Class, zoo.ClassTinyRegs)
	}
	for _, mc := range []struct {
		name string
		m    *isdl.Machine
	}{
		{"example-full", isdl.ExampleArchFull(4)},
		{tiny.Class, tiny.M},
	} {
		t.Run(mc.name, func(t *testing.T) {
			// The prefix's first store to x is dead on both arms.
			src := "x = a * b;\nif (a > c) { x = a - c; } else { x = c; }\n" + bench.MultiBlockSource(12, 12, 8)
			prog, err := lang.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			f, err := lang.Lower(prog, "main")
			if err != nil {
				t.Fatal(err)
			}
			opts := verifyOpts()
			opts.DiskCache = newMapStore()
			fresh, err := aviv.Compile(f, mc.m, opts)
			if err != nil {
				t.Fatal(err)
			}
			restart, err := aviv.Compile(f, mc.m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := restart.Program.String(), fresh.Program.String(); got != want {
				t.Fatalf("restart from disk changed the output:\n%s\nvs\n%s", got, want)
			}
			saved := 0
			for i, fb := range fresh.Metrics.Blocks {
				rb := restart.Metrics.Blocks[i]
				if !rb.DiskHit {
					t.Fatalf("block %s was not rebuilt from disk: %+v", rb.Block, rb)
				}
				if rb.Peephole != 0 {
					t.Errorf("block %s spent %v in the peephole on a disk hit", rb.Block, rb.Peephole)
				}
				if got, want := rb.Effort(), fb.Effort(); got != want {
					t.Errorf("block %s effort after the disk round trip:\n got %+v\nwant %+v", rb.Block, got, want)
				}
				saved += fb.PeepholeSaved
			}
			if saved == 0 {
				t.Fatal("program exercises too little: no instruction saved by the peephole")
			}
		})
	}
}
