package cover

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"sync/atomic"

	"aviv/internal/isdl"
	"aviv/internal/lru"
)

// EntryStore is the persistent tier below Cache: a byte-oriented
// content-addressed store (implemented by internal/diskcache) keyed by
// the same fingerprints. aviv stores each block's finished code in it,
// encoded with its effort counters, and treats every failure — absent
// key, truncated or corrupted entry, version skew, an entry that names
// a unit, bus or register the machine does not have — as a miss, so a
// store can never change compiled output, only skip recomputation.
type EntryStore interface {
	// Get returns the stored entry for key, or ok=false on any miss.
	Get(key [sha256.Size]byte) ([]byte, bool)
	// Put persists an entry. Best-effort: errors are swallowed by the
	// implementation (a failed write is just a future miss).
	Put(key [sha256.Size]byte, data []byte)
}

// Cache is the per-block memory tier: a bounded LRU of finished block
// compilations, safe for concurrent use by the compile worker pool.
// Keys are content fingerprints that cover everything a block's code
// depends on (aviv derives them from BlockKey), so a hit is only
// possible when compiling would deterministically recompute the same
// result. Values are opaque to this package: aviv stores its own
// per-block artifact and asserts the type back on a hit. Entries are
// never mutated after insertion.
//
// The cache also memoizes the fingerprints of the MaxMachineFingerprints
// most recently used *isdl.Machine values, so a many-block compile
// hashes its machine description once.
type Cache struct {
	lru     *lru.Cache[[sha256.Size]byte, cached]
	bytes   atomic.Int64
	machFPs *lru.Cache[*isdl.Machine, [sha256.Size]byte]
}

// MaxMachineFingerprints caps Cache's machine-fingerprint memo. Compiles
// use a handful of machines; the cap keeps a stream of distinct machine
// pointers (a server re-parsing evicted machine texts, say) from growing
// the memo without bound.
const MaxMachineFingerprints = 64

type cached struct {
	val   any
	bytes int64
}

// CacheStats is a point-in-time snapshot of the memory tier.
type CacheStats struct {
	Entries int
	Hits    int64
	Misses  int64
	// Evictions counts entries dropped to respect the entry cap.
	Evictions int64
	// Bytes estimates the memory retained by cached entries.
	Bytes int64
}

// NewBoundedCache returns a memory tier holding at most maxEntries
// blocks, evicting least recently used first. maxEntries <= 0 means
// unbounded.
func NewBoundedCache(maxEntries int) *Cache {
	c := &Cache{machFPs: lru.New[*isdl.Machine, [sha256.Size]byte](MaxMachineFingerprints, nil)}
	c.lru = lru.New(maxEntries, func(_ [sha256.Size]byte, e cached) { c.bytes.Add(-e.bytes) })
	return c
}

// Get returns the entry stored under key, counting a hit or a miss.
func (c *Cache) Get(key [sha256.Size]byte) (any, bool) {
	e, ok := c.lru.Get(key)
	return e.val, ok
}

// Add stores val under key, accounting bytes as its retained size. If
// key is already present the first entry is kept and returned.
func (c *Cache) Add(key [sha256.Size]byte, val any, bytes int64) any {
	held, added := c.lru.Add(key, cached{val, bytes})
	if added {
		c.bytes.Add(bytes)
	}
	return held.val
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	st := c.lru.Stats()
	return CacheStats{
		Entries:   st.Len,
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Bytes:     c.bytes.Load(),
	}
}

// MachineFingerprint returns m.Fingerprint(), memoized per machine
// pointer.
func (c *Cache) MachineFingerprint(m *isdl.Machine) [sha256.Size]byte {
	if fp, ok := c.machFPs.Get(m); ok {
		return fp
	}
	fp, _ := c.machFPs.Add(m, m.Fingerprint())
	return fp
}

// MachineFingerprints returns how many machine fingerprints the cache
// memoizes, at most MaxMachineFingerprints.
func (c *Cache) MachineFingerprints() int { return c.machFPs.Stats().Len }

// fpWriter accumulates fingerprint material, length-prefixing every
// field so adjacent records cannot alias.
type fpWriter struct {
	buf []byte
}

func (w *fpWriter) int(v int) { w.buf = binary.AppendVarint(w.buf, int64(v)) }

func (w *fpWriter) str(s string) {
	w.int(len(s))
	w.buf = append(w.buf, s...)
}

func (w *fpWriter) bool(b bool) {
	if b {
		w.int(1)
	} else {
		w.int(0)
	}
}

// options writes every Options field that influences the covering
// result except LiveOut, which optionsFingerprint appends. Trace is
// excluded (it has no effect on output, and aviv bypasses the cache
// tiers when tracing).
func (w *fpWriter) options(o Options) {
	w.int(o.BeamWidth)
	w.bool(o.PruneIncremental)
	w.int(o.MaxAssignments)
	w.int(o.LevelWindow)
	w.int(o.CliqueBudget)
	w.bool(o.Lookahead)
	// Two former fields, written at the values both presets gave them so
	// keys stay byte-identical: TransferParallelismHeuristic (true; the
	// Sec. IV-B path choice pickPath always makes) and
	// SpillAwareAssignment (false).
	w.bool(true)
	w.bool(false)
	w.int(len(o.VarPlacement))
	for _, k := range sortedKeys(o.VarPlacement) {
		w.str(k)
		w.str(o.VarPlacement[k])
	}
}

// optionsFingerprint hashes every Options field that influences the
// covering result.
func optionsFingerprint(o Options) [sha256.Size]byte {
	var w fpWriter
	w.options(o)
	if o.LiveOut == nil {
		// nil disables store pruning entirely; an empty set prunes
		// aggressively. The two must not collide.
		w.int(-1)
	} else {
		live := make([]string, 0, len(o.LiveOut))
		for v, ok := range o.LiveOut {
			if ok {
				live = append(live, v)
			}
		}
		sort.Strings(live)
		w.int(len(live))
		for _, v := range live {
			w.str(v)
		}
	}
	return sha256.Sum256(w.buf)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
