package aviv

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"aviv/internal/asm"
	"aviv/internal/cover"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/metrics"
)

// keyDomain versions the per-block key recipe. Bump it whenever the
// recipe changes so persisted entries from older builds miss instead of
// colliding.
const keyDomain = "aviv-block-v3"

// The one per-block cache key is
//
//	sha256(keyDomain | cover.BlockKey(b, machineFP, opts.Cover) | peephole)
//
// with opts.Cover.LiveOut nil. cover.BlockKey already covers the
// block's content, the machine and every covering option, variable
// placement included; the peephole flag is the only other input
// CompileBlock reads. No liveness fact is part of the key: Compile
// compiles each block as given, so nothing outside the block can change
// its code. cover.BlockKeyer fingerprints the options once per compile.

// domainKey finishes a block key from its cover.BlockKey part.
func domainKey(base [sha256.Size]byte, peephole bool) [sha256.Size]byte {
	var in [len(keyDomain) + sha256.Size + 1]byte
	n := copy(in[:], keyDomain)
	n += copy(in[n:], base[:])
	if peephole {
		in[n] = 1
	}
	return sha256.Sum256(in[:])
}

// entryVersion versions the disk tier's entries: the block's effort
// counters (varints, in effortFields order) followed by its pre-layout
// code in asm's block codec. An entry holds what covering, peephole,
// register allocation and emission produced, and the block key sees
// none of them, so a change to what any of these passes outputs must
// bump entryVersion, as must a change to either layout
// (TestEntryVersionPinsContent fails until it is bumped). Versions up
// to 3 held the cover codec's finished schedule; they fail to decode
// here and are deleted and rewritten like any stale entry.
const entryVersion = 5

// effortFields lists the counters an entry carries, in entry order.
func effortFields(bm *metrics.BlockMetrics) [6]*int {
	return [6]*int{&bm.DAGNodes, &bm.Instructions, &bm.Spills,
		&bm.AssignmentsExplored, &bm.PeepholeSaved, &bm.PrunedAssignments}
}

// appendEntry appends the disk entry of a freshly compiled block: code
// must still be pre-layout.
func appendEntry(dst []byte, code *asm.Block, bm metrics.BlockMetrics, m *isdl.Machine) ([]byte, error) {
	dst = binary.AppendUvarint(dst, entryVersion)
	for _, v := range effortFields(&bm) {
		dst = binary.AppendVarint(dst, int64(*v))
	}
	return asm.AppendBlock(dst, code, m)
}

// decodeEntry reads back an entry appendEntry wrote for the code of b on
// m: the pre-layout code and the effort counters of the compile that
// wrote it. Any error means a stale or foreign entry; the caller treats
// it as a miss.
func decodeEntry(data []byte, b *ir.Block, m *isdl.Machine) (*asm.Block, metrics.BlockMetrics, error) {
	bm := metrics.BlockMetrics{Block: b.Name}
	v, n := binary.Uvarint(data)
	if n <= 0 || v != entryVersion {
		return nil, bm, fmt.Errorf("aviv: block %s: cache entry version %d, want %d", b.Name, v, entryVersion)
	}
	data = data[n:]
	for _, f := range effortFields(&bm) {
		c, n := binary.Varint(data)
		if n <= 0 {
			return nil, bm, fmt.Errorf("aviv: block %s: truncated cache entry", b.Name)
		}
		*f, data = int(c), data[n:]
	}
	code, err := asm.DecodeBlock(data, b, m)
	if err != nil {
		return nil, bm, fmt.Errorf("aviv: block %s: %w", b.Name, err)
	}
	return code, bm, nil
}

// cachedBlock is a block as the memory tier holds it: pristine
// pre-layout code and the effort counters of the compile that made it.
type cachedBlock struct {
	code   asm.Block
	effort metrics.BlockMetrics
}

// blockCache is one Compile's view of the per-block cache tiers. A nil
// *blockCache compiles every block from scratch.
//
// Both tiers hold a block's finished code: its pre-layout emitted
// instructions plus the effort counters of the compile that made it.
// The memory tier (Options.Cache) holds them as a *cachedBlock; the
// disk tier (Options.DiskCache) holds them encoded (appendEntry) under
// the same key. A hit in either skips every per-block pass — covering,
// peephole, register allocation and emission; a disk hit costs one
// decode and fills the memory tier. A fresh compile is written once to
// each tier.
type blockCache struct {
	mem  *cover.Cache
	disk cover.EntryStore
	keys *cover.BlockKeyer
}

// newBlockCache returns the tiers of opts, or nil when there are none or
// when Cover.Trace is set (a trace must log a full covering run).
func newBlockCache(m *isdl.Machine, opts Options) *blockCache {
	if opts.Cover.Trace != nil || (opts.Cache == nil && opts.DiskCache == nil) {
		return nil
	}
	return &blockCache{mem: opts.Cache, disk: opts.DiskCache, keys: cover.NewBlockKeyer(m.Fingerprint(), opts.Cover)}
}

// compile returns the result of b from the first tier that has it, or
// compiles it fresh and writes it back. opts.Cover.LiveOut must be nil.
func (bc *blockCache) compile(b *ir.Block, m *isdl.Machine, opts Options) (*BlockResult, error) {
	if bc == nil {
		return CompileBlock(b, m, opts)
	}
	total := metrics.StartTimer()
	key := domainKey(bc.keys.Key(b), opts.Peephole)
	if bc.mem != nil {
		if v, ok := bc.mem.Get(key); ok {
			hit := v.(*cachedBlock)
			code := hit.code // layout rewrites Branch; the cached block stays pristine
			br := &BlockResult{Block: b, Code: &code, Metrics: hit.effort}
			br.Metrics.CacheHit = true
			br.Metrics.Total = total.Elapsed()
			return br, nil
		}
	}
	invalidated := false
	if bc.disk != nil {
		if data, ok := bc.disk.Get(key); ok {
			decode := metrics.StartTimer()
			code, effort, err := decodeEntry(data, b, m)
			if err == nil {
				br := &BlockResult{Block: b, Code: code, Metrics: effort}
				br.Metrics.Cover = decode.Elapsed()
				br.Metrics.CacheHit, br.Metrics.DiskHit = true, true
				bc.remember(key, code, effort)
				br.Metrics.Total = total.Elapsed()
				return br, nil
			}
			// The entry read back clean (the storage checksum held) but
			// does not decode — version skew, say. Left in place it would
			// be re-read and re-rejected on every lookup; delete it so the
			// Put below rewrites it.
			invalidated = true
			if del, ok := bc.disk.(cover.DeletableStore); ok {
				del.Delete(key)
			}
		}
	}
	br, err := CompileBlock(b, m, opts)
	if err != nil {
		return nil, err
	}
	br.Metrics.DiskMiss = bc.disk != nil
	br.Metrics.Invalidated = invalidated
	bc.remember(key, br.Code, br.Metrics.Effort())
	if bc.disk != nil {
		if data, err := appendEntry(nil, br.Code, br.Metrics, m); err == nil {
			bc.disk.Put(key, data)
		}
	}
	br.Metrics.Total = total.Elapsed()
	return br, nil
}

// remember stores a private copy of code in the memory tier, so the
// caller's code is free to go through layout.
func (bc *blockCache) remember(key [sha256.Size]byte, code *asm.Block, effort metrics.BlockMetrics) {
	if bc.mem == nil {
		return
	}
	bc.mem.Add(key, &cachedBlock{code: *code, effort: effort}, code.Footprint())
}
