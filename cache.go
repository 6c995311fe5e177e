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
const keyDomain = "aviv-block-v2"

// blockKey is the one per-block cache key:
//
//	sha256(keyDomain | cover.BlockKey(b, machineFP, opts.Cover) | peephole)
//
// cover.BlockKey already covers the block's content, the machine and
// every covering option, live-out set and variable placement included;
// the peephole flag is the only other input CompileBlock reads. The
// live-in set is deliberately absent: it is use ∪ (live-out − def),
// which the block content and live-out already fix.
func blockKey(b *ir.Block, machineFP [sha256.Size]byte, opts Options) [sha256.Size]byte {
	base := cover.BlockKey(b, machineFP, opts.Cover)
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
	mfp  [sha256.Size]byte
}

// newBlockCache returns the tiers of opts, or nil when there are none or
// when Cover.Trace is set (a trace must log a full covering run).
func newBlockCache(m *isdl.Machine, opts Options) *blockCache {
	if opts.Cover.Trace != nil || (opts.Cache == nil && opts.DiskCache == nil) {
		return nil
	}
	bc := &blockCache{mem: opts.Cache, disk: opts.DiskCache}
	if bc.mem != nil {
		bc.mfp = bc.mem.MachineFingerprint(m)
	} else {
		bc.mfp = m.Fingerprint()
	}
	return bc
}

// compile returns block b's result from the first tier that has it, or
// compiles it fresh and writes it back.
func (bc *blockCache) compile(b *ir.Block, m *isdl.Machine, opts Options) (*BlockResult, error) {
	if bc == nil {
		return CompileBlock(b, m, opts)
	}
	total := metrics.StartTimer()
	key := blockKey(b, bc.mfp, opts)
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
