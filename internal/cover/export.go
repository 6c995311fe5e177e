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
	return blockKeyOf(block, machineFP, optionsFingerprint(opts))
}

func blockKeyOf(block *ir.Block, machineFP, optsFP [sha256.Size]byte) [sha256.Size]byte {
	var in [3 * sha256.Size]byte
	blockFP := block.Fingerprint()
	copy(in[:], blockFP[:])
	copy(in[sha256.Size:], machineFP[:])
	copy(in[2*sha256.Size:], optsFP[:])
	return sha256.Sum256(in[:])
}

// BlockKeyer computes BlockKey for the blocks of one compile: every
// option but LiveOut is serialized once, and each block's live-out set
// arrives as a sorted list of names instead of a map to sort.
type BlockKeyer struct {
	machineFP [sha256.Size]byte
	opts      []byte // fingerprint material of opts up to LiveOut
}

// NewBlockKeyer returns a keyer for blocks compiled against the machine
// with fingerprint machineFP under opts; opts.LiveOut is ignored.
func NewBlockKeyer(machineFP [sha256.Size]byte, opts Options) *BlockKeyer {
	var w fpWriter
	w.options(opts)
	return &BlockKeyer{machineFP: machineFP, opts: w.buf}
}

// Key returns BlockKey(block, machineFP, opts) with opts.LiveOut set to
// the variables of liveOut, which must be ascending and distinct.
func (k *BlockKeyer) Key(block *ir.Block, liveOut []string) [sha256.Size]byte {
	w := fpWriter{buf: make([]byte, 0, len(k.opts)+8+16*len(liveOut))}
	w.buf = append(w.buf, k.opts...)
	w.liveOut(liveOut)
	return blockKeyOf(block, k.machineFP, sha256.Sum256(w.buf))
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
