package cover

import (
	"crypto/sha256"

	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sndag"
)

// BlockKey returns the content address of one covering request, given
// a precomputed machine fingerprint (m.Fingerprint(), which callers
// that key many blocks against one machine should memoize — see
// Cache.MachineFingerprint). The key covers the block fingerprint, the
// machine fingerprint, and every Options field that can change the
// covering (including LiveOut and VarPlacement; see
// optionsFingerprint).
//
// aviv folds this key into its per-block cache key, so a block
// artifact can never be reused across a change that would have altered
// the covering.
func BlockKey(block *ir.Block, machineFP [sha256.Size]byte, opts Options) [sha256.Size]byte {
	blockFP, optsFP := block.Fingerprint(), optionsFingerprint(opts)
	h := sha256.New()
	h.Write(blockFP[:])
	h.Write(machineFP[:])
	h.Write(optsFP[:])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// EncodeResult serializes a covering for a persistent tier, declining
// (ok=false) when the result is not representable. The format is
// versioned; DecodeResult and DecodeBlock read it back.
func EncodeResult(res *Result) (data []byte, ok bool) { return encodeResult(res) }

// DecodeBlock is CoverBlock for a persisted covering: it re-derives the
// covered block and its Split-Node DAG exactly as CoverBlock would
// (both are deterministic functions of the block, the machine and
// opts.LiveOut) and decodes data against them. Any error must be
// treated as a cache miss.
func DecodeBlock(data []byte, block *ir.Block, m *isdl.Machine, opts Options) (*Result, error) {
	d, pruned, err := coveredDAG(block, m, opts)
	if err != nil {
		return nil, err
	}
	res, err := decodeResult(data, d)
	if err != nil {
		return nil, err
	}
	res.PrunedStores = pruned
	return res, nil
}

// DecodeResult rebuilds a covering from its serialized form against a
// freshly derived Split-Node DAG of the covered block. Any
// inconsistency — version skew, truncation, out-of-range reference, or
// a decoded solution that fails Verify — returns an error, which
// callers must treat as a cache miss.
func DecodeResult(data []byte, dag *sndag.DAG) (*Result, error) { return decodeResult(data, dag) }

// DeletableStore is the optional extension of EntryStore for tiers that
// can drop entries in place. Callers use it to turn an entry that reads
// back fine but no longer decodes (codec version skew surviving the
// storage checksum) into a deletion-as-miss instead of a permanent
// re-decode-and-fail on every lookup.
type DeletableStore interface {
	EntryStore
	// Delete removes the entry for key, if present. Best-effort.
	Delete(key [sha256.Size]byte)
}
