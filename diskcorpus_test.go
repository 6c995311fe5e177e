package aviv

import (
	"testing"

	"aviv/internal/cover"
	"aviv/internal/diskcache"
)

// TestDiskCacheCorpusByteIdentical compiles the difftest corpus three
// ways — no cache, cold disk cache, warm disk cache in a fresh "process"
// (new Options, new memory cache, same directory) — and requires the
// emitted programs to be byte-identical. This is the persistent tier's
// version of the existing cache property test: a disk round-trip through
// the covering codec must never change output, and the warm pass must
// serve every block without a covering search.
func TestDiskCacheCorpusByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the 50-program corpus three times")
	}
	want := corpusProgramText(t, DefaultOptions())

	dir := t.TempDir()
	cold, err := diskcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Cache = cover.NewBoundedCache(0)
	opts.DiskCache = cold
	if got := corpusProgramText(t, opts); got != want {
		t.Fatalf("cold disk-cache corpus differs from uncached compilation (%d vs %d bytes)", len(got), len(want))
	}
	cs := cold.Stats()
	if cs.Writes == 0 {
		t.Fatalf("cold pass wrote nothing to the disk tier: %+v", cs)
	}

	warm, err := diskcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts = DefaultOptions()
	opts.Cache = cover.NewBoundedCache(0)
	opts.DiskCache = warm
	// Every block must come back from a tier: an encode decline or a
	// decode failure would silently turn a disk hit back into a covering
	// search, with the same bytes.
	got := corpusCompile(t, opts, func(seed int64, res *CompileResult) {
		if r := res.Metrics.Reuse(); r.Recompiled != 0 || r.Invalidations != 0 || r.DiskHits == 0 {
			t.Errorf("seed %d: warm pass %+v, want every block from disk", seed, r)
		}
	})
	if got != want {
		t.Fatalf("warm disk-cache corpus differs from uncached compilation (%d vs %d bytes)", len(got), len(want))
	}
	ws := warm.Stats()
	if ws.Hits == 0 || ws.Corrupt != 0 {
		t.Fatalf("warm pass did not serve from the disk tier cleanly: %+v", ws)
	}
}
