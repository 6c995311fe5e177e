package cover

import (
	"testing"

	"aviv/internal/isdl"
	"aviv/internal/sndag"
)

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

// TestGraphFingerprintStability checks the intra-search memo keying: the
// same (DAG, assignment) builds to the same fingerprint on every build,
// and different assignments of the same block hash apart.
func TestGraphFingerprintStability(t *testing.T) {
	m := isdl.ExampleArch(4)
	d, err := sndag.Build(fig2Block(), m)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	as := exploreAssignments(d, opts)
	if len(as) < 2 {
		t.Fatalf("expected several assignments, got %d", len(as))
	}
	g1, err := buildGraph(d, as[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := buildGraph(d, as[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	if graphFingerprint(g1) != graphFingerprint(g2) {
		t.Fatal("same assignment builds to different graph fingerprints")
	}
	gOther, err := buildGraph(d, as[1], opts)
	if err != nil {
		t.Fatal(err)
	}
	if graphFingerprint(g1) == graphFingerprint(gOther) {
		t.Fatal("distinct assignments collide on the graph fingerprint")
	}
}

// TestMatrixFingerprintStability checks that the parallelism-matrix hash
// depends on the bits, not on object identity.
func TestMatrixFingerprintStability(t *testing.T) {
	m := isdl.ExampleArch(4)
	d, err := sndag.Build(fig2Block(), m)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	a := exploreAssignments(d, opts)[0]
	g, err := buildGraph(d, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	p1 := parallelMatrix(g.nodes, g.machine, opts.LevelWindow)
	p2 := parallelMatrix(g.nodes, g.machine, opts.LevelWindow)
	if matrixFingerprint(p1) != matrixFingerprint(p2) {
		t.Fatal("same matrix hashes differently")
	}
	pWindow := parallelMatrix(g.nodes, g.machine, 1)
	if p1.Equal(pWindow) {
		t.Skip("level window 1 did not change the matrix on this workload")
	}
	if matrixFingerprint(p1) == matrixFingerprint(pWindow) {
		t.Fatal("different matrices collide")
	}
}
