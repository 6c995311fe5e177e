package cover

import (
	"crypto/sha256"

	"aviv/internal/ir"
	"aviv/internal/sndag"
)

// BlockKey returns the content address of one covering request, given
// a machine fingerprint (m.Fingerprint(), which Finalize stores). The
// key covers the block fingerprint, the
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

// BlockKeyer computes BlockKey for the blocks of one compile: the
// options are fingerprinted once, with LiveOut nil, so each block costs
// its own fingerprint and one more hash.
type BlockKeyer struct {
	machineFP [sha256.Size]byte
	optsFP    [sha256.Size]byte
}

// NewBlockKeyer returns a keyer for blocks compiled against the machine
// with fingerprint machineFP under opts; opts.LiveOut is ignored.
func NewBlockKeyer(machineFP [sha256.Size]byte, opts Options) *BlockKeyer {
	opts.LiveOut = nil
	return &BlockKeyer{machineFP: machineFP, optsFP: optionsFingerprint(opts)}
}

// Key returns BlockKey(block, machineFP, opts) with opts.LiveOut nil.
func (k *BlockKeyer) Key(block *ir.Block) [sha256.Size]byte {
	return blockKeyOf(block, k.machineFP, k.optsFP)
}

// EncodeResult serializes a covering for a persistent tier, declining
// (ok=false) when the result is not representable. The format is
// versioned; DecodeResult reads it back.
func EncodeResult(res *Result) (data []byte, ok bool) { return encodeResult(res) }

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
