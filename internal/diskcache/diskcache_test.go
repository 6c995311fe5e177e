package diskcache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"aviv/internal/cover"
)

// The store must satisfy the covering engine's persistent-tier contract.
var _ cover.EntryStore = (*Cache)(nil)

func keyOf(s string) [sha256.Size]byte { return sha256.Sum256([]byte(s)) }

func openTemp(t *testing.T, maxBytes int64) *Cache {
	t.Helper()
	c, err := Open(t.TempDir(), maxBytes)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	c := openTemp(t, 0)
	key := keyOf("k1")
	payload := []byte("the covering payload")
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, payload)
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload, true", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Corrupt != 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 write", st)
	}
	if st.Bytes != int64(len(payload)) {
		t.Errorf("bytes = %d, want %d", st.Bytes, len(payload))
	}
}

func TestEmptyPayload(t *testing.T) {
	c := openTemp(t, 0)
	key := keyOf("empty")
	c.Put(key, nil)
	got, ok := c.Get(key)
	if !ok || len(got) != 0 {
		t.Fatalf("empty payload round trip: %q, %v", got, ok)
	}
}

// corruptVariants mutates a valid on-disk entry in every way the
// acceptance criteria call out. All must degrade to misses.
func TestCorruptedEntriesAreMisses(t *testing.T) {
	key := keyOf("victim")
	payload := []byte("payload bytes to protect")

	variants := []struct {
		name   string
		mutate func(data []byte) []byte
	}{
		{"truncated-header", func(d []byte) []byte { return d[:headerSize/2] }},
		{"truncated-payload", func(d []byte) []byte { return d[:headerSize+3] }},
		{"empty-file", func(d []byte) []byte { return nil }},
		{"bad-magic", func(d []byte) []byte { d[0] = 'X'; return d }},
		{"wrong-version", func(d []byte) []byte { d[7] = formatVersion + 1; return d }},
		{"flipped-payload-bit", func(d []byte) []byte { d[headerSize] ^= 0x40; return d }},
		{"flipped-checksum-bit", func(d []byte) []byte { d[20] ^= 0x01; return d }},
		{"trailing-garbage", func(d []byte) []byte { return append(d, 0xEE) }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			c := openTemp(t, 0)
			c.Put(key, payload)
			path := c.path(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading entry back: %v", err)
			}
			if err := os.WriteFile(path, v.mutate(data), 0o644); err != nil {
				t.Fatalf("corrupting entry: %v", err)
			}
			if got, ok := c.Get(key); ok {
				t.Fatalf("corrupted entry served as hit: %q", got)
			}
			if st := c.Stats(); st.Corrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
			}
			// The bad entry is dropped, so a re-Put restores service.
			c.Put(key, payload)
			if got, ok := c.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatal("re-Put after corruption did not restore the entry")
			}
		})
	}
}

func TestConcurrentGoroutineWriters(t *testing.T) {
	c := openTemp(t, 0)
	const workers = 8
	const keys = 16
	payloadFor := func(k int) []byte {
		return bytes.Repeat([]byte{byte(k)}, 64+k)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				for k := 0; k < keys; k++ {
					key := keyOf(fmt.Sprintf("key-%d", k))
					if got, ok := c.Get(key); ok && !bytes.Equal(got, payloadFor(k)) {
						t.Errorf("key %d served wrong payload under concurrency", k)
						return
					}
					c.Put(key, payloadFor(k))
				}
			}
		}()
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		got, ok := c.Get(keyOf(fmt.Sprintf("key-%d", k)))
		if !ok || !bytes.Equal(got, payloadFor(k)) {
			t.Fatalf("key %d missing or wrong after concurrent writes", k)
		}
	}
	if st := c.Stats(); st.Corrupt != 0 {
		t.Errorf("concurrent same-content writers produced %d corrupt reads", st.Corrupt)
	}
}

// TestTwoProcessWriters re-executes the test binary so two OS processes
// hammer one cache directory. Atomic rename plus checksummed reads must
// keep every observed entry intact.
func TestTwoProcessWriters(t *testing.T) {
	if os.Getenv("DISKCACHE_HELPER_DIR") != "" {
		t.Skip("helper mode runs via TestDiskCacheHelperProcess")
	}
	dir := t.TempDir()
	const procs = 2
	var procErr [procs]error
	var out [procs][]byte
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cmd := exec.Command(os.Args[0], "-test.run", "^TestDiskCacheHelperProcess$", "-test.v")
			cmd.Env = append(os.Environ(),
				"DISKCACHE_HELPER_DIR="+dir,
				fmt.Sprintf("DISKCACHE_HELPER_SEED=%d", p))
			out[p], procErr[p] = cmd.CombinedOutput()
		}(p)
	}
	wg.Wait()
	for p := 0; p < procs; p++ {
		if procErr[p] != nil {
			t.Fatalf("helper process %d failed: %v\n%s", p, procErr[p], out[p])
		}
	}
	// Every entry both processes wrote must read back intact here too.
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("reopening shared dir: %v", err)
	}
	for k := 0; k < 8; k++ {
		got, ok := c.Get(keyOf(fmt.Sprintf("shared-%d", k)))
		if !ok {
			t.Fatalf("shared key %d missing after two-process run", k)
		}
		if want := bytes.Repeat([]byte{byte(k)}, 128); !bytes.Equal(got, want) {
			t.Fatalf("shared key %d has wrong payload", k)
		}
	}
	if st := c.Stats(); st.Corrupt != 0 {
		t.Errorf("two-process run left %d corrupt entries", st.Corrupt)
	}
}

// TestDiskCacheHelperProcess is the body run inside the subprocesses of
// TestTwoProcessWriters; it skips unless launched by it.
func TestDiskCacheHelperProcess(t *testing.T) {
	dir := os.Getenv("DISKCACHE_HELPER_DIR")
	if dir == "" {
		t.Skip("not in helper mode")
	}
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("helper Open: %v", err)
	}
	for iter := 0; iter < 50; iter++ {
		for k := 0; k < 8; k++ {
			key := keyOf(fmt.Sprintf("shared-%d", k))
			want := bytes.Repeat([]byte{byte(k)}, 128)
			if got, ok := c.Get(key); ok && !bytes.Equal(got, want) {
				t.Fatalf("helper observed wrong payload for key %d", k)
			}
			c.Put(key, want)
		}
	}
	if st := c.Stats(); st.Corrupt != 0 {
		t.Fatalf("helper observed %d corrupt entries", st.Corrupt)
	}
}

func TestEvictionRespectsBound(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{0xAB}, 1000)
	c, err := Open(dir, 3500) // room for three 1000-byte payloads, not five
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 5; i++ {
		key := keyOf(fmt.Sprintf("evict-%d", i))
		c.Put(key, payload)
		// Backdate older entries explicitly: filesystem mtime granularity
		// is too coarse to order sub-millisecond writes.
		mod := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(c.path(key), mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	// One more write triggers eviction of the oldest entries.
	c.Put(keyOf("evict-last"), payload)
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite exceeding the byte bound")
	}
	if st.Bytes > 3500 {
		t.Errorf("bytes = %d, want <= 3500 after eviction", st.Bytes)
	}
	if _, ok := c.Get(keyOf("evict-0")); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := c.Get(keyOf("evict-last")); !ok {
		t.Error("newest entry was evicted")
	}
}

func TestOpenMeasuresExistingAndSweepsTmp(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{1}, 500)
	c.Put(keyOf("persist"), payload)

	// A fresh, old tmp file simulating a crashed writer.
	stale := filepath.Join(c.Dir(), "00", "deadbeef.123.tmp")
	if err := os.MkdirAll(filepath.Dir(stale), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Minute)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Bytes != int64(len(payload)) {
		t.Errorf("reopened cache accounts %d bytes, want %d", st.Bytes, len(payload))
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale tmp file survived Open")
	}
	if got, ok := c2.Get(keyOf("persist")); !ok || !bytes.Equal(got, payload) {
		t.Error("entry did not survive reopen")
	}
}

// diskUsage sums the payload bytes of every entry file under the cache
// root — the ground truth the accounting must track.
func diskUsage(t *testing.T, c *Cache) int64 {
	t.Helper()
	var total int64
	err := filepath.WalkDir(c.Dir(), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasSuffix(path, ".tmp") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		if sz := info.Size() - headerSize; sz > 0 {
			total += sz
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// TestDeleteInvalidatesEntry pins the deletion-as-miss path the
// per-block cache uses for entries that read back clean but no longer
// decode.
func TestDeleteInvalidatesEntry(t *testing.T) {
	c := openTemp(t, 0)
	key := keyOf("stale-covering")
	c.Put(key, bytes.Repeat([]byte{7}, 300))
	c.Delete(key)
	if _, ok := c.Get(key); ok {
		t.Fatal("deleted entry still served")
	}
	st := c.Stats()
	if st.Deletes != 1 {
		t.Errorf("deletes = %d, want 1", st.Deletes)
	}
	if st.Bytes != 0 {
		t.Errorf("bytes = %d after deleting the only entry, want 0", st.Bytes)
	}
	// Deleting an absent key is a silent no-op.
	c.Delete(keyOf("never-written"))
	if st := c.Stats(); st.Deletes != 1 {
		t.Errorf("no-op delete counted: deletes = %d, want 1", st.Deletes)
	}
	// The slot is immediately rewritable.
	c.Put(key, []byte("fresh"))
	if got, ok := c.Get(key); !ok || !bytes.Equal(got, []byte("fresh")) {
		t.Fatal("re-Put after Delete did not restore service")
	}
}

// TestPutOverwriteAccounting: rewriting a key must account the byte
// delta, not the sum — otherwise per-block entries rewritten on every
// invalidation inflate the accounted volume until eviction runs against
// a phantom total.
func TestPutOverwriteAccounting(t *testing.T) {
	c := openTemp(t, 0)
	key := keyOf("rewritten-block")
	c.Put(key, bytes.Repeat([]byte{1}, 1000))
	c.Put(key, bytes.Repeat([]byte{2}, 400))
	if st := c.Stats(); st.Bytes != 400 {
		t.Fatalf("bytes = %d after shrinking overwrite, want 400", st.Bytes)
	}
	c.Put(key, bytes.Repeat([]byte{3}, 1000))
	if st := c.Stats(); st.Bytes != 1000 {
		t.Fatalf("bytes = %d after growing overwrite, want 1000", st.Bytes)
	}
	c.Put(keyOf("other"), bytes.Repeat([]byte{4}, 50))
	c.Delete(key)
	st := c.Stats()
	if want := diskUsage(t, c); st.Bytes != want {
		t.Fatalf("accounted %d bytes, disk holds %d", st.Bytes, want)
	}
}

// TestTouchOnHitProtectsHotEntries: Get refreshes an entry's mtime, so a
// per-block entry that keeps stitching survives eviction even when it
// was written long before colder entries.
func TestTouchOnHitProtectsHotEntries(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{0xCD}, 1000)
	c, err := Open(dir, 3500)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		key := keyOf(fmt.Sprintf("block-%d", i))
		c.Put(key, payload)
		mod := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(c.path(key), mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	// The oldest-written entry is the hot one: a hit re-touches it.
	if _, ok := c.Get(keyOf("block-0")); !ok {
		t.Fatal("hot entry missing before eviction")
	}
	// Two more writes push the volume past the bound; eviction must take
	// the stale block-1/block-2, not the freshly touched block-0.
	c.Put(keyOf("block-3"), payload)
	c.Put(keyOf("block-4"), payload)
	if _, ok := c.Get(keyOf("block-0")); !ok {
		t.Fatal("touched entry was evicted despite being hottest")
	}
	if _, ok := c.Get(keyOf("block-1")); ok {
		t.Fatal("stale entry survived while the bound was exceeded")
	}
	if st := c.Stats(); st.Bytes > 3500 {
		t.Errorf("bytes = %d, want <= 3500 after eviction", st.Bytes)
	}
}

// TestTwoProcessDeltaStress extends the multi-process stress to the
// per-block tier's access pattern: concurrent Put/Get/Delete over per-block
// keys from two OS processes sharing one directory. Every observed
// payload must be intact, and the directory must end re-servable.
func TestTwoProcessDeltaStress(t *testing.T) {
	if os.Getenv("DISKCACHE_DELTA_DIR") != "" {
		t.Skip("helper mode runs via TestDiskCacheDeltaHelperProcess")
	}
	dir := t.TempDir()
	const procs = 2
	var procErr [procs]error
	var out [procs][]byte
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cmd := exec.Command(os.Args[0], "-test.run", "^TestDiskCacheDeltaHelperProcess$", "-test.v")
			cmd.Env = append(os.Environ(),
				"DISKCACHE_DELTA_DIR="+dir,
				fmt.Sprintf("DISKCACHE_DELTA_SEED=%d", p))
			out[p], procErr[p] = cmd.CombinedOutput()
		}(p)
	}
	wg.Wait()
	for p := 0; p < procs; p++ {
		if procErr[p] != nil {
			t.Fatalf("helper process %d failed: %v\n%s", p, procErr[p], out[p])
		}
	}
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("reopening shared dir: %v", err)
	}
	// Deletions may have removed any key; what remains must be intact,
	// and every slot must be rewritable.
	for k := 0; k < 8; k++ {
		key := keyOf(fmt.Sprintf("blockkey-%d", k))
		if got, ok := c.Get(key); ok {
			if want := bytes.Repeat([]byte{byte(k)}, 96+k); !bytes.Equal(got, want) {
				t.Fatalf("block key %d has wrong payload after stress", k)
			}
		}
		c.Put(key, bytes.Repeat([]byte{byte(k)}, 96+k))
		if _, ok := c.Get(key); !ok {
			t.Fatalf("block key %d not servable after re-Put", k)
		}
	}
	if st := c.Stats(); st.Corrupt != 0 {
		t.Errorf("delta stress left %d corrupt reads", st.Corrupt)
	}
	if want := diskUsage(t, c); c.Stats().Bytes != want {
		t.Errorf("accounted %d bytes, disk holds %d", c.Stats().Bytes, want)
	}
}

// TestDiskCacheDeltaHelperProcess is the body run inside the
// subprocesses of TestTwoProcessDeltaStress; it skips unless launched
// by it.
func TestDiskCacheDeltaHelperProcess(t *testing.T) {
	dir := os.Getenv("DISKCACHE_DELTA_DIR")
	if dir == "" {
		t.Skip("not in helper mode")
	}
	seed := os.Getenv("DISKCACHE_DELTA_SEED")
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("helper Open: %v", err)
	}
	for iter := 0; iter < 50; iter++ {
		for k := 0; k < 8; k++ {
			key := keyOf(fmt.Sprintf("blockkey-%d", k))
			want := bytes.Repeat([]byte{byte(k)}, 96+k)
			if got, ok := c.Get(key); ok && !bytes.Equal(got, want) {
				t.Fatalf("helper observed wrong payload for block key %d", k)
			}
			c.Put(key, want)
			// Each process invalidates a different key slice, mimicking two
			// compilers racing deletion-as-miss against re-population.
			if (k+iter)%4 == 0 && (seed == "0") == (k%2 == 0) {
				c.Delete(key)
			}
		}
	}
	if st := c.Stats(); st.Corrupt != 0 {
		t.Fatalf("helper observed %d corrupt reads", st.Corrupt)
	}
}

// TestEntryWireCorruptionTable extends the corruption table to the
// cluster peering wire path: EncodeEntry's framing is what a node ships
// to a peer, and DecodeEntry must reject every mutation a lossy or
// hostile transfer could produce — so a bad transfer can only ever
// degrade to a miss (and a local compile), never to a wrong payload.
func TestEntryWireCorruptionTable(t *testing.T) {
	payload := []byte("peer-transferred covering payload")
	framed := EncodeEntry(payload)

	if got, err := DecodeEntry(append([]byte(nil), framed...)); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("clean transfer rejected: %q, %v", got, err)
	}

	variants := []struct {
		name   string
		mutate func(d []byte) []byte
	}{
		{"truncated-header", func(d []byte) []byte { return d[:headerSize/2] }},
		{"truncated-body", func(d []byte) []byte { return d[:len(d)-5] }},
		{"empty-transfer", func(d []byte) []byte { return nil }},
		{"bad-magic", func(d []byte) []byte { d[0] = 'X'; return d }},
		{"wrong-version", func(d []byte) []byte { d[7] = formatVersion + 1; return d }},
		{"bit-flipped-body", func(d []byte) []byte { d[headerSize+2] ^= 0x08; return d }},
		{"bit-flipped-checksum", func(d []byte) []byte { d[20] ^= 0x01; return d }},
		{"length-overstated", func(d []byte) []byte { d[15]++; return d }},
		{"trailing-garbage", func(d []byte) []byte { return append(d, 0xEE) }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			data := v.mutate(append([]byte(nil), framed...))
			if got, err := DecodeEntry(data); err == nil {
				t.Fatalf("corrupted transfer accepted: %q", got)
			}
		})
	}
}

// TestKeysEnumeratesEntries pins the drain enumeration: Keys returns
// exactly the stored keys, sorted, and skips temporaries and foreign
// files.
func TestKeysEnumeratesEntries(t *testing.T) {
	c := openTemp(t, 0)
	want := map[[sha256.Size]byte]bool{}
	for i := 0; i < 5; i++ {
		key := keyOf(fmt.Sprintf("k%d", i))
		c.Put(key, []byte{byte(i)})
		want[key] = true
	}
	// Distractors: a stale temporary and a foreign file.
	if err := os.MkdirAll(filepath.Join(c.Dir(), "aa"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.Dir(), "aa", "stray.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(c.Dir(), "README"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	keys := c.Keys()
	if len(keys) != len(want) {
		t.Fatalf("Keys() returned %d keys, want %d", len(keys), len(want))
	}
	for i, k := range keys {
		if !want[k] {
			t.Errorf("Keys()[%d] = %x not a stored key", i, k)
		}
		if i > 0 && string(keys[i-1][:]) >= string(k[:]) {
			t.Errorf("Keys() not sorted at %d", i)
		}
	}
}
