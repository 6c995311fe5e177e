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

// liveOuts carries one Compile's liveness result to the per-block
// path: its bit sets give each block's live-out names for keying
// (AppendOutVars) and its store prune (PruneBlock), with no map per
// block.
type liveOuts struct {
	r *dataflow.LivenessResult
}

// blockCache is one Compile's view of the per-block cache tiers. A nil
// *blockCache compiles every block from scratch.
//
// The memory tier (Options.Cache) holds finished *BlockResults with
// pristine pre-layout code; a hit skips every per-block pass. The disk
// tier (Options.DiskCache) holds the encoded finished schedule — the
// post-peephole Solution with the covering's and the peephole's
// counters — under the same key; a hit decodes and re-verifies it and
// runs only register allocation and emission. A fresh compile is
// written once to each tier.
//
// Both the tiered and the untiered path cover the block with the stores
// dead past it already removed, pruned straight from the liveness bits
// (dataflow.LivenessResult.PruneBlock), so Cover.LiveOut stays nil and
// no live-out map is built; the result still names the source block.
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
// writes it back. opts.Cover.LiveOut must be nil. names is scratch
// space for the live-out names.
func (bc *blockCache) compile(i int, b *ir.Block, m *isdl.Machine, opts Options, lo *liveOuts, names *[]string) (*BlockResult, error) {
	if bc == nil {
		covered, pruned := lo.r.PruneBlock(i)
		return compileCovered(b, covered, pruned, m, opts)
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
	covered, pruned := lo.r.PruneBlock(i)
	invalidated := false
	if bc.disk != nil {
		if data, ok := bc.disk.Get(key); ok {
			decode := metrics.StartTimer()
			res, err := cover.DecodeBlock(data, covered, m, opts.Cover)
			decodeTime := decode.Elapsed()
			var br *BlockResult
			if err == nil {
				// The entry is the finished schedule: the peephole already ran.
				res.PrunedStores = pruned
				br, err = finishBlock(b, res, false)
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
	br, err := compileCovered(b, covered, pruned, m, opts)
	if err != nil {
		return nil, err
	}
	br.Metrics.DiskMiss = bc.disk != nil
	br.Metrics.Invalidated = invalidated
	bc.remember(key, br)
	if bc.disk != nil {
		finished := *br.Covering
		finished.Best, finished.PeepholeSaved = br.Solution, br.PeepholeSaved
		if data, ok := cover.EncodeResult(&finished); ok {
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
