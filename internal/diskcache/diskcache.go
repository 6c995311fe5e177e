// Package diskcache is the persistent tier of the two-tier compile
// cache: a crash-safe, content-addressed store of serialized coverings
// keyed by the covering engine's (block, machine, options) content
// fingerprints.
//
// Layout: entries live under dir/<v1>/<aa>/<hex key>, where <aa> is the
// first byte of the key in hex — 256 shards keep directory listings
// short under millions of entries. Each entry is one file framed as
//
//	magic "AVDC" | format u32 | payload length u64 | sha256(payload) | payload
//
// (fixed-width big-endian header). Writes go to a same-directory
// temporary file first and are renamed into place, so a reader never
// observes a partially written entry under POSIX rename atomicity; a
// crash mid-write leaves only a stale *.tmp file that Open sweeps.
// Reads re-verify the checksum, so torn writes, truncation, version
// skew, and bit rot all degrade to cache misses — the store can only
// ever skip work, never change output.
//
// The cache is size-bounded: when the payload bytes on disk exceed
// MaxBytes after a write, the oldest entries by modification time are
// evicted until the total is under the limit again (LRU-ish: Get
// re-touches entries it serves, so hot entries survive). Eviction is
// best-effort and tolerates concurrent processes removing the same
// files. A Cache re-measures the directory before its writes since the
// last measurement would pass MaxBytes/16 payload bytes, so caches
// sharing it see each other's writes.
package diskcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// walkFraction sets how often a Cache re-measures its directory:
	// before its writes since the last walk pass maxBytes/walkFraction
	// payload bytes. N caches sharing a directory then hold at most
	// maxBytes plus N times that.
	walkFraction = 16

	magic = "AVDC"
	// formatVersion frames the container; the payload carries its own
	// codec version on top.
	formatVersion = 1
	headerSize    = 4 + 4 + 8 + sha256.Size
	// versionDir isolates incompatible on-disk layouts from each other.
	versionDir = "v1"
)

// Stats is a snapshot of cache-effectiveness and integrity counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Writes    int64 `json:"writes"`
	Evictions int64 `json:"evictions"`
	// Corrupt counts entries rejected by framing or checksum checks
	// (each also counted as a miss).
	Corrupt int64 `json:"corrupt"`
	// Deletes counts entries removed through Delete — callers invalidating
	// entries that read back clean but no longer decode (codec version
	// skew), so the slot is rewritten instead of failing on every lookup.
	Deletes int64 `json:"deletes"`
	// WriteErrors counts best-effort writes that failed (disk full,
	// permissions); each is swallowed and the entry simply not cached.
	WriteErrors int64 `json:"write_errors"`
	// Bytes is the payload volume currently accounted on disk.
	Bytes int64 `json:"bytes"`
}

// Cache is a content-addressed on-disk entry store implementing
// cover.EntryStore. Safe for concurrent use by multiple goroutines and
// — because every write is atomic and every read checksummed — by
// multiple processes sharing the directory.
type Cache struct {
	dir      string
	maxBytes int64

	mu    sync.Mutex
	bytes int64
	// sinceWalk counts the payload bytes written since the last eviction
	// walk started, less any write that walked first to make room for
	// itself.
	sinceWalk int64
	hits      int64
	misses    int64
	writes    int64
	evictions int64
	corrupt   int64
	deletes   int64
	writeErrs int64
}

// Open creates (if needed) and opens the cache rooted at dir. maxBytes
// bounds the total payload volume; <= 0 means unbounded. Stale
// temporary files from crashed writers are swept, and the current disk
// usage is measured so the size bound holds across process restarts.
//
// After that scan a Cache counts its own writes, and re-measures the
// whole directory with its eviction walk whenever its count crosses
// maxBytes, or before a write that would take its writes since its
// last walk past maxBytes/16 payload bytes. The walk trims every entry
// in the directory, other Caches' included, back under maxBytes (less
// the size of the write that triggered it). So N Caches opened together
// on one directory (N avivd processes sharing a -cache-dir) hold at
// most maxBytes + N × maxBytes/16 on disk, while a write lands too and
// whatever the entries' sizes.
func Open(dir string, maxBytes int64) (*Cache, error) {
	root := filepath.Join(dir, versionDir)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	c := &Cache{dir: root, maxBytes: maxBytes}
	var bytes int64
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a vanished file is another process evicting
		}
		if strings.HasSuffix(path, ".tmp") {
			// Leftover from a crashed writer; old enough to be certainly
			// abandoned (a live writer renames within milliseconds).
			if info, err := d.Info(); err == nil && time.Since(info.ModTime()) > time.Minute {
				os.Remove(path)
			}
			return nil
		}
		if info, err := d.Info(); err == nil {
			if sz := info.Size() - headerSize; sz > 0 {
				bytes += sz
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("diskcache: scanning %s: %w", root, err)
	}
	c.bytes = bytes
	return c, nil
}

// Dir returns the versioned root directory of the cache.
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Writes:      c.writes,
		Evictions:   c.evictions,
		Corrupt:     c.corrupt,
		Deletes:     c.deletes,
		WriteErrors: c.writeErrs,
		Bytes:       c.bytes,
	}
}

func (c *Cache) path(key [sha256.Size]byte) string {
	name := hex.EncodeToString(key[:])
	return filepath.Join(c.dir, name[:2], name)
}

// Get returns the payload stored under key. Every failure — absent
// entry, bad framing, checksum mismatch — is reported as a plain miss;
// corrupted entries are additionally removed so they are re-written
// cleanly on the next Put.
func (c *Cache) Get(key [sha256.Size]byte) ([]byte, bool) {
	path := c.path(key)
	payload, err := readEntry(path)
	if err != nil {
		c.mu.Lock()
		c.misses++
		if !errors.Is(err, fs.ErrNotExist) {
			c.corrupt++
		}
		c.mu.Unlock()
		if !errors.Is(err, fs.ErrNotExist) {
			c.dropEntry(path)
		}
		return nil, false
	}
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
	return payload, true
}

// readEntry reads and verifies the entry at path and, when it is good,
// touches it for LRU-ish eviction ordering (best-effort). Both go
// through one open descriptor, so a hit looks the path up once. Put
// renames a finished file into place and nothing writes an entry file
// after that, so the size the descriptor reports is the whole entry.
func readEntry(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, info.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	payload, err := decodeEntry(data)
	if err != nil {
		return nil, err
	}
	touch(f)
	return payload, nil
}

// encodeEntry frames payload exactly as an on-disk entry file is laid
// out: magic, format version, length, sha256, payload.
func encodeEntry(payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	copy(out[:4], magic)
	binary.BigEndian.PutUint32(out[4:8], formatVersion)
	binary.BigEndian.PutUint64(out[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(out[16:], sum[:])
	copy(out[headerSize:], payload)
	return out
}

// decodeEntry verifies a framed entry — magic, version, exact length,
// checksum, no trailing bytes — and returns its payload. A torn,
// truncated or bit-flipped file fails here and reads as a miss.
func decodeEntry(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("short header: %d bytes", len(data))
	}
	if string(data[:4]) != magic {
		return nil, errors.New("bad magic")
	}
	if v := binary.BigEndian.Uint32(data[4:8]); v != formatVersion {
		return nil, fmt.Errorf("format version %d, want %d", v, formatVersion)
	}
	n := binary.BigEndian.Uint64(data[8:16])
	const maxEntry = 1 << 30 // defensive: no covering is a gigabyte
	if n > maxEntry {
		return nil, fmt.Errorf("implausible payload length %d", n)
	}
	if uint64(len(data)-headerSize) < n {
		return nil, fmt.Errorf("short payload: %d of %d bytes", len(data)-headerSize, n)
	}
	// Trailing garbage means the entry is not what a writer framed.
	if uint64(len(data)-headerSize) > n {
		return nil, errors.New("trailing bytes after payload")
	}
	payload := data[headerSize:]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(data[16:16+sha256.Size]) {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// Put stores payload under key. Best-effort by contract: any failure is
// counted and swallowed (a failed write is just a future miss). The
// write is atomic — temp file in the target directory, fsync, rename —
// so concurrent readers and writers, including other processes, never
// observe partial entries; last writer wins, and all writers store
// identical content for a given key anyway.
func (c *Cache) Put(key [sha256.Size]byte, payload []byte) {
	path := c.path(key)
	n := int64(len(payload))
	// A write that would take this cache's writes since its last walk
	// past maxBytes/walkFraction walks first and makes room for itself,
	// so the bound holds while the entry lands, whatever its size.
	c.mu.Lock()
	walkFirst := c.maxBytes > 0 && c.sinceWalk+n > c.maxBytes/walkFraction
	c.mu.Unlock()
	if walkFirst {
		c.evict(n)
	}
	// An overwrite replaces the old entry's payload on disk; account the
	// difference, not the sum, or repeated rewrites of hot keys inflate
	// c.bytes until eviction runs on a phantom volume. Best-effort (a
	// concurrent writer may race the stat); evict re-measures anyway.
	var replaced int64
	if info, err := os.Stat(path); err == nil {
		if sz := info.Size() - headerSize; sz > 0 {
			replaced = sz
		}
	}
	if err := c.writeEntry(path, payload); err != nil {
		c.mu.Lock()
		c.writeErrs++
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	c.writes++
	c.bytes += n - replaced
	if !walkFirst {
		c.sinceWalk += n
	}
	needEvict := c.maxBytes > 0 && c.bytes > c.maxBytes
	c.mu.Unlock()
	if needEvict {
		c.evict(0)
	}
}

// Delete removes the entry for key, if present, and counts the
// deletion. It is the invalidation path for entries whose payload is
// intact on disk (the checksum holds, so Get keeps serving it) but can
// no longer be decoded by the caller — without deletion such an entry
// would fail decode on every future lookup while its freshly touched
// mtime keeps it at the young end of the eviction order, crowding out
// entries that still work. Implements cover.DeletableStore.
func (c *Cache) Delete(key [sha256.Size]byte) {
	path := c.path(key)
	info, err := os.Stat(path)
	if err != nil {
		return
	}
	sz := info.Size() - headerSize
	if os.Remove(path) != nil {
		return
	}
	c.mu.Lock()
	if sz > 0 {
		c.bytes -= sz
	}
	c.deletes++
	c.mu.Unlock()
}

func (c *Cache) writeEntry(path string, payload []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(encodeEntry(payload)); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// dropEntry removes a corrupted entry and un-accounts its payload bytes.
func (c *Cache) dropEntry(path string) {
	info, err := os.Stat(path)
	var sz int64
	if err == nil {
		sz = info.Size() - headerSize
	}
	if os.Remove(path) == nil && sz > 0 {
		c.mu.Lock()
		c.bytes -= sz
		c.mu.Unlock()
	}
}

// evict re-measures the directory and removes oldest-modified entries
// until total payload bytes fit the bound again with room bytes to
// spare. Races with other
// evicting processes are benign: a file already removed simply does not
// decrement our accounting twice, and under-counting only makes
// eviction run once more.
func (c *Cache) evict(room int64) {
	c.mu.Lock()
	c.sinceWalk = 0
	c.mu.Unlock()
	type entry struct {
		path string
		mod  time.Time
		size int64
	}
	var entries []entry
	filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasSuffix(path, ".tmp") {
			return nil
		}
		if info, err := d.Info(); err == nil {
			entries = append(entries, entry{path, info.ModTime(), info.Size() - headerSize})
		}
		return nil
	})
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mod.Equal(entries[j].mod) {
			return entries[i].mod.Before(entries[j].mod)
		}
		return entries[i].path < entries[j].path
	})
	// Re-measure while evicting: accounting drift (multi-process use)
	// must not cause runaway deletion.
	total := int64(0)
	for _, e := range entries {
		if e.size > 0 {
			total += e.size
		}
	}
	c.mu.Lock()
	c.bytes = total
	c.mu.Unlock()
	for _, e := range entries {
		if total <= c.maxBytes-room {
			break
		}
		if os.Remove(e.path) == nil {
			// A foreign or truncated file can report a negative payload
			// size; clamp so removing it never *grows* the accounting.
			sz := e.size
			if sz < 0 {
				sz = 0
			}
			total -= sz
			c.mu.Lock()
			c.bytes -= sz
			c.evictions++
			c.mu.Unlock()
		}
	}
}
