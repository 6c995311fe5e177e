package aviv

import (
	"testing"

	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/isdl"
)

// TestCompileCacheByteIdentical is the cache property test: compiling
// the whole difftest corpus with a shared compile cache — twice, so the
// second pass is answered from the cache — produces byte-for-byte the
// program text of an uncached compile, under both presets.
func TestCompileCacheByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	for _, preset := range []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"exhaustive", ExhaustiveOptions()},
	} {
		t.Run(preset.name, func(t *testing.T) {
			want := corpusProgramText(t, preset.opts)
			cached := preset.opts
			cached.Cache = cover.NewBoundedCache(0)
			if got := corpusProgramText(t, cached); got != want {
				t.Fatal("first cached pass differs from uncached compile")
			}
			statsAfterFirst := cached.Cache.Stats()
			if got := corpusProgramText(t, cached); got != want {
				t.Fatal("cache-hit pass differs from uncached compile")
			}
			stats := cached.Cache.Stats()
			if stats.Hits <= statsAfterFirst.Hits {
				t.Fatalf("second pass produced no cache hits: %+v", stats)
			}
			if stats.Entries == 0 || stats.Bytes == 0 {
				t.Fatalf("cache stats not populated: %+v", stats)
			}
		})
	}
}

// TestCompileCacheVerifiedHit exercises the translation-validator path
// on a cache hit: the covered block is then a content-identical clone of
// the current block (pointer-unequal), and verification must still
// accept the program.
func TestCompileCacheVerifiedHit(t *testing.T) {
	src, _ := bench.DiffProgram(3, false)
	m := isdl.ExampleArchFull(4)
	opts := DefaultOptions()
	opts.Verify = true
	opts.Cache = cover.NewBoundedCache(0)
	first, err := CompileSource(src, m, 1, opts)
	if err != nil {
		t.Fatalf("first compile: %v", err)
	}
	second, err := CompileSource(src, m, 1, opts)
	if err != nil {
		t.Fatalf("verified cache-hit compile: %v", err)
	}
	if first.Program.String() != second.Program.String() {
		t.Fatal("cache-hit program differs")
	}
	if second.Metrics.CacheHits() == 0 {
		t.Fatal("second compile hit no cached blocks")
	}
}

// TestCompileCacheKeyedByOptions checks that option changes miss: the
// same source under a different level window must not reuse a covering.
func TestCompileCacheKeyedByOptions(t *testing.T) {
	src, _ := bench.DiffProgram(5, false)
	m := isdl.ExampleArchFull(4)
	cache := cover.NewBoundedCache(0)
	opts := DefaultOptions()
	opts.Cache = cache
	if _, err := CompileSource(src, m, 1, opts); err != nil {
		t.Fatal(err)
	}
	other := opts
	other.Cover.LevelWindow = 5
	res, err := CompileSource(src, m, 1, other)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CacheHits() != 0 {
		t.Fatal("covering reused across differing options")
	}
}
