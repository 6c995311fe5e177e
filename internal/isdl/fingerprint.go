package isdl

import "crypto/sha256"

// Fingerprint returns a content hash of the machine description and its
// derived databases. It is computed from Describe(), which renders the
// units (register files, shared banks, op latencies), memories, buses,
// constraints, complex-instruction patterns, the op-to-unit correlation
// database, and the expanded transfer-path database in a deterministic
// order — everything code generation reads. Machines with equal
// fingerprints compile any block identically, which makes the
// fingerprint usable as a compile-cache key component.
//
// Finalize computes the fingerprint and stores it, so on a finalized
// machine this returns the stored value; otherwise it is computed
// afresh. A machine edited after Finalize through its exported fields,
// without a second Finalize, is unsupported: its stored fingerprint
// goes stale along with its op-to-unit and transfer-path databases.
func (m *Machine) Fingerprint() [sha256.Size]byte {
	if m.finalized {
		return m.fp
	}
	return sha256.Sum256([]byte(m.Describe()))
}
