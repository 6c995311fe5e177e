package cover

import (
	"encoding/hex"
	"testing"

	"aviv/internal/ir"
	"aviv/internal/isdl"
)

// TestOptionsFingerprintGolden pins the bytes of the block keys: the
// options fingerprints of both presets and the key of the paper's Ex1
// on ExampleArch(4). A change to what fpWriter.options writes would
// orphan every entry a previous build left in a disk tier, and a test
// that compares two recipes over optionsFingerprint cannot see it.
func TestOptionsFingerprintGolden(t *testing.T) {
	// bench.Ex1's block, built here because bench imports this package.
	bb := ir.NewBuilder("Ex1")
	sum := bb.Add(bb.Load("a"), bb.Load("b"))
	prod := bb.Mul(bb.Load("c"), bb.Load("d"))
	bb.Store("out", bb.Sub(sum, prod))
	bb.Return()
	ex1 := bb.Finish()

	for _, c := range []struct {
		name string
		got  [32]byte
		want string
	}{
		{"DefaultOptions", optionsFingerprint(DefaultOptions()),
			"c0d19d5282b45f5510708a56ac07e1cd01199ded98db65636dbce1cf2b3fb3cf"},
		{"ExhaustiveOptions", optionsFingerprint(ExhaustiveOptions()),
			"7ad1b4b548ba959f6f901183e8e7bfa4dc1fdf32a136b50df82440e819482752"},
		{"BlockKey(Ex1, ExampleArch(4))", BlockKey(ex1, isdl.ExampleArch(4).Fingerprint(), DefaultOptions()),
			"32cc84ade9285f27e61f1acadb4fb3fb6dd4ca6e710b4ac1be14f15366d9bb20"},
	} {
		if got := hex.EncodeToString(c.got[:]); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestOptionsFingerprintStability pins down the compile-cache keying
// over options: equal option sets hash equal, every knob that changes
// covering output changes the hash, and a nil LiveOut (pruning off) is
// distinguished from an empty one (everything dead).
func TestOptionsFingerprintStability(t *testing.T) {
	base := DefaultOptions()
	if optionsFingerprint(base) != optionsFingerprint(DefaultOptions()) {
		t.Fatal("identical options hash differently")
	}
	seen := map[[32]byte]string{optionsFingerprint(base): "default"}
	for _, mut := range []struct {
		name string
		mut  func(*Options)
	}{
		{"beam", func(o *Options) { o.BeamWidth = base.BeamWidth + 3 }},
		{"prune", func(o *Options) { o.PruneIncremental = !o.PruneIncremental }},
		{"maxassign", func(o *Options) { o.MaxAssignments = base.MaxAssignments + 1 }},
		{"window", func(o *Options) { o.LevelWindow = base.LevelWindow + 2 }},
		{"cliquebudget", func(o *Options) { o.CliqueBudget = base.CliqueBudget + 512 }},
		{"lookahead", func(o *Options) { o.Lookahead = !o.Lookahead }},
		{"placement", func(o *Options) { o.VarPlacement = map[string]string{"a": "DM2"} }},
		{"liveout-empty", func(o *Options) { o.LiveOut = map[string]bool{} }},
		{"liveout-x", func(o *Options) { o.LiveOut = map[string]bool{"x": true} }},
	} {
		o := DefaultOptions()
		mut.mut(&o)
		fp := optionsFingerprint(o)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("options %q and %q collide", mut.name, prev)
		}
		seen[fp] = mut.name
	}
	// Trace identity must NOT affect the key.
	traced := DefaultOptions()
	traced.Trace = &Trace{}
	if optionsFingerprint(traced) != optionsFingerprint(base) {
		t.Fatal("Trace identity leaked into the options fingerprint")
	}
}
