package aviv

import (
	"crypto/sha256"

	"aviv/internal/cover"
	"aviv/internal/dataflow"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/metrics"
)

// keyDomain versions the per-block key recipe. Bump it whenever the
// recipe changes so persisted entries from older builds miss instead of
// colliding.
const keyDomain = "aviv-block-v2"

// The one per-block cache key is
//
//	sha256(keyDomain | cover.BlockKey(b, machineFP, opts.Cover) | peephole)
//
// with opts.Cover.LiveOut set to the block's live-out set. cover.BlockKey
// already covers the block's content, the machine and every covering
// option, live-out set and variable placement included; the peephole
// flag is the only other input CompileBlock reads. The live-in set is
// deliberately absent: it is use ∪ (live-out − def), which the block
// content and live-out already fix. Compile hashes the same bytes
// without building a live-out map per block: cover.BlockKeyer
// serializes the options once per compile, and each block's live-out
// names come straight from the liveness bit sets
// (dataflow.LivenessResult.AppendOutVars).

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

// liveOuts hands out the blocks' live-out sets of one Compile: as sorted
// names read from the liveness bit sets for keying, and as the map
// cover.Options.LiveOut consumes, built only for a block that is
// covered or decoded — or for every block up front when Verify needs
// them all.
type liveOuts struct {
	r    *dataflow.LivenessResult
	sets []map[string]bool // every block's map, or nil to build on demand
}

// set returns block i's live-out map.
func (l *liveOuts) set(i int) map[string]bool {
	if l.sets != nil {
		return l.sets[i]
	}
	return l.r.OutSet(i)
}

// blockCache is one Compile's view of the per-block cache tiers. A nil
// *blockCache compiles every block from scratch.
//
// The memory tier (Options.Cache) holds finished *BlockResults with
// pristine pre-layout code; a hit skips every per-block pass. The disk
// tier (Options.DiskCache) holds the encoded pre-peephole covering under
// the same key; a hit skips the covering search and re-runs the cheap
// tail passes. A fresh compile is written once to each tier.
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
	var mfp [sha256.Size]byte
	if opts.Cache != nil {
		mfp = opts.Cache.MachineFingerprint(m)
	} else {
		mfp = m.Fingerprint()
	}
	return &blockCache{mem: opts.Cache, disk: opts.DiskCache, keys: cover.NewBlockKeyer(mfp, opts.Cover)}
}

// compile returns the result of b, block i of the function lo
// describes, from the first tier that has it, or compiles it fresh and
// writes it back. names is scratch space for the live-out names.
func (bc *blockCache) compile(i int, b *ir.Block, m *isdl.Machine, opts Options, lo *liveOuts, names *[]string) (*BlockResult, error) {
	if bc == nil {
		opts.Cover.LiveOut = lo.set(i)
		return CompileBlock(b, m, opts)
	}
	total := metrics.StartTimer()
	key := bc.key(i, b, lo, opts.Peephole, names)
	if bc.mem != nil {
		if v, ok := bc.mem.Get(key); ok {
			hit := v.(*BlockResult)
			br := *hit
			code := *hit.Code // layout rewrites Branch; the cached block stays pristine
			br.Block, br.Code = b, &code
			br.Metrics = hit.Metrics.Effort()
			br.Metrics.CacheHit = true
			br.Metrics.Total = total.Elapsed()
			return &br, nil
		}
	}
	opts.Cover.LiveOut = lo.set(i)
	invalidated := false
	if bc.disk != nil {
		if data, ok := bc.disk.Get(key); ok {
			decode := metrics.StartTimer()
			res, err := cover.DecodeBlock(data, b, m, opts.Cover)
			decodeTime := decode.Elapsed()
			var br *BlockResult
			if err == nil {
				br, err = finishBlock(b, res, opts.Peephole)
			}
			if err == nil {
				br.Metrics.Cover = decodeTime
				br.Metrics.CacheHit, br.Metrics.DiskHit = true, true
				bc.remember(key, br)
				br.Metrics.Total = total.Elapsed()
				return br, nil
			}
			// The entry read back clean (the storage checksum held) but no
			// longer decodes — codec version skew, say. Left in place it
			// would be re-read and re-rejected on every lookup; delete it
			// so the Put below rewrites it.
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
	bc.remember(key, br)
	if bc.disk != nil {
		if data, ok := cover.EncodeResult(br.Covering); ok {
			bc.disk.Put(key, data)
		}
	}
	br.Metrics.Total = total.Elapsed()
	return br, nil
}

// key returns the cache key of b, block i of the function lo describes.
func (bc *blockCache) key(i int, b *ir.Block, lo *liveOuts, peephole bool, names *[]string) [sha256.Size]byte {
	*names = lo.r.AppendOutVars((*names)[:0], i)
	return domainKey(bc.keys.Key(b, *names), peephole)
}

// remember stores a private copy of br in the memory tier, so the
// caller's br.Code is free to go through layout.
func (bc *blockCache) remember(key [sha256.Size]byte, br *BlockResult) {
	if bc.mem == nil {
		return
	}
	cp := *br
	code := *br.Code
	cp.Code = &code
	bc.mem.Add(key, &cp, br.Covering.ApproxBytes())
}
