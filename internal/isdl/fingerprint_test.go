package isdl

import (
	"crypto/sha256"
	"testing"
)

// TestMachineFingerprint checks the compile-cache machine key: a machine
// hashes stably across calls, and every stock architecture (and register
// count) hashes apart.
func TestMachineFingerprint(t *testing.T) {
	if ExampleArch(4).Fingerprint() != ExampleArch(4).Fingerprint() {
		t.Fatal("same machine hashes differently")
	}
	seen := map[[32]byte]string{}
	for _, m := range []*Machine{
		ExampleArch(4), ExampleArch(2), ArchitectureII(4), SingleIssueDSP(4),
		WideDSP(4), ClusteredVLIW(4), DualMemDSP(4), ExampleArchFull(4),
	} {
		fp := m.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("machines %q and %q collide", m.Name, prev)
		}
		seen[fp] = m.Name
	}

	// Finalize stores the description's hash; an edit to a clone made
	// before its Finalize is in the clone's stored fingerprint.
	m := ExampleArch(4)
	c := m.Clone(m.Name)
	c.Unit("U1").Regs.Size = 2
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Machine{m, c} {
		if x.Fingerprint() != sha256.Sum256([]byte(x.Describe())) {
			t.Fatalf("%s: stored fingerprint is not its description's hash", x.Name)
		}
	}
	if c.Fingerprint() == m.Fingerprint() {
		t.Fatal("a register-file edit before Finalize left the fingerprint unchanged")
	}
}
