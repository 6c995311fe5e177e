package aviv

import (
	"crypto/sha256"

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
	invalidated := false
	if bc.disk != nil {
		if data, ok := bc.disk.Get(key); ok {
			decode := metrics.StartTimer()
			res, err := cover.DecodeBlock(data, b, m)
			decodeTime := decode.Elapsed()
			var br *BlockResult
			if err == nil {
				// The entry is the finished schedule: the peephole already ran.
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
	br, err := CompileBlock(b, m, opts)
	if err != nil {
		return nil, err
	}
	br.Metrics.DiskMiss = bc.disk != nil
	br.Metrics.Invalidated = invalidated
	bc.remember(key, br)
	if bc.disk != nil {
		finished := *br.Covering
		finished.Best, finished.PeepholeSaved = br.Solution, br.Metrics.PeepholeSaved
		if data, ok := cover.EncodeResult(&finished); ok {
			bc.disk.Put(key, data)
		}
	}
	br.Metrics.Total = total.Elapsed()
	return br, nil
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
