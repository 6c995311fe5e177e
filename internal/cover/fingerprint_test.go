package cover

import "testing"

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
		{"transfer", func(o *Options) { o.TransferParallelismHeuristic = !o.TransferParallelismHeuristic }},
		{"spillaware", func(o *Options) { o.SpillAwareAssignment = !o.SpillAwareAssignment }},
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
