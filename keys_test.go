package aviv

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/zoo"
)

// blockKey is the per-block key recipe spelled out by hand:
// cover.BlockKey over opts.Cover with LiveOut nil, wrapped in keyDomain
// and the peephole flag. Compile must derive the same key through
// cover.BlockKeyer.
func blockKey(b *ir.Block, machineFP [sha256.Size]byte, opts Options) [sha256.Size]byte {
	o := opts.Cover
	o.LiveOut = nil
	base := cover.BlockKey(b, machineFP, o)
	h := sha256.New()
	h.Write([]byte(keyDomain))
	h.Write(base[:])
	if opts.Peephole {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// getRecorder is a disk tier that misses every lookup and records the
// keys asked for, in order.
type getRecorder struct {
	mu   sync.Mutex
	keys [][sha256.Size]byte
}

func (r *getRecorder) Get(key [sha256.Size]byte) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys = append(r.keys, key)
	return nil, false
}

func (r *getRecorder) Put([sha256.Size]byte, []byte) {}

// TestBlockKeyMatchesMapRecipe: the key Compile builds through
// cover.BlockKeyer equals blockKey over cover.BlockKey, block for
// block, on the example machine and on a dual-memory zoo machine (so
// VarPlacement is non-empty), over the difftest programs and
// MultiBlockSource edit chains. Keys that change bytes would orphan
// every entry a previous build wrote to a disk tier.
func TestBlockKeyMatchesMapRecipe(t *testing.T) {
	if keyDomain != "aviv-block-v3" {
		t.Fatalf("keyDomain = %q: the key recipe must not change", keyDomain)
	}
	var dual *isdl.Machine
	for _, e := range zooEntries(t) {
		if e.Class == zoo.ClassDualMemory {
			dual = e.M
			break
		}
	}
	if dual == nil {
		t.Fatal("zoo has no dual-memory machine")
	}
	type program struct {
		label string
		src   string
	}
	var corpus []program
	seeds, chains, edits := int64(200), int64(8), int64(30)
	if testing.Short() {
		seeds, chains, edits = 50, 2, 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		src, _ := bench.DiffProgram(seed, seed%2 == 1)
		corpus = append(corpus, program{fmt.Sprintf("difftest seed %d", seed), src})
	}
	for seed := int64(0); seed < chains; seed++ {
		src := bench.MultiBlockSource(seed, 25, 5)
		corpus = append(corpus, program{fmt.Sprintf("multiblock seed %d", seed), src})
		for e := int64(0); e < edits; e++ {
			src = bench.MutateSource(src, seed*1000+e)
			corpus = append(corpus, program{fmt.Sprintf("multiblock seed %d edit %d", seed, e), src})
		}
	}
	for _, mc := range []struct {
		name string
		m    *isdl.Machine
	}{
		{"example-full", isdl.ExampleArchFull(4)},
		{"dual-memory", dual},
	} {
		mfp := mc.m.Fingerprint()
		blocks, placed := 0, 0
		for k, p := range corpus {
			f, err := ParseAndLower(p.src, 1)
			if err != nil {
				t.Fatalf("%s: %v", p.label, err)
			}
			base := DefaultOptions()
			if k%3 == 2 {
				base = ExhaustiveOptions()
				base.Peephole = false
			}
			base.Cache = cover.NewBoundedCache(1)
			opts := PlacementOptions(f, mc.m, base)
			if len(opts.Cover.VarPlacement) > 0 {
				placed++
			}
			bc := newBlockCache(mc.m, opts)
			want := make([][sha256.Size]byte, len(f.Blocks))
			for i, b := range f.Blocks {
				want[i] = blockKey(b, mfp, opts)
				if got := domainKey(bc.keys.Key(b), opts.Peephole); got != want[i] {
					t.Fatalf("%s on %s: block %s key %x, map recipe gives %x", p.label, mc.name, b.Name, got, want[i])
				}
				blocks++
			}
			// End to end on a sample: the keys Compile looks up in the
			// disk tier are the same keys, in block order. (k is even, so
			// no bitwise difftest program: the example machine cannot
			// compile those.)
			if k%26 == 0 {
				rec := &getRecorder{}
				o := base
				o.Cache, o.DiskCache, o.Parallelism = nil, rec, 1
				if _, err := Compile(f, mc.m, o); err != nil {
					t.Fatalf("%s on %s: %v", p.label, mc.name, err)
				}
				if len(rec.keys) != len(want) {
					t.Fatalf("%s on %s: %d disk lookups for %d blocks", p.label, mc.name, len(rec.keys), len(want))
				}
				for i := range want {
					if rec.keys[i] != want[i] {
						t.Fatalf("%s on %s: Compile looked up block %d under %x, want %x", p.label, mc.name, i, rec.keys[i], want[i])
					}
				}
			}
		}
		if mc.m == dual && placed == 0 {
			t.Fatal("no program placed a variable on the dual-memory machine")
		}
		t.Logf("%s: %d blocks over %d programs, %d with a variable placement", mc.name, blocks, len(corpus), placed)
	}
}
