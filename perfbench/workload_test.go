package main

import (
	"reflect"
	"testing"
)

// The same seed must give byte-identical request lists, so a result can
// be re-checked later, and a different seed different ones, so it can be
// checked on a held-out seed.
func TestWorkloadDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		a, err := NewWorkload(name, 42, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewWorkload(name, 42, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 gave two different workloads", name)
		}
		c, err := NewWorkload(name, 43, 2)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(timedBodies(a), timedBodies(c)) {
			t.Errorf("%s: seeds 42 and 43 gave the same timed requests", name)
		}
	}
}

// Each edit chain is seeded per client, so a client's chain does not
// depend on how many other clients there are.
func TestEditChainsArePerClient(t *testing.T) {
	one, err := NewWorkload(editStream, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	three, err := NewWorkload(editStream, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(three.Lanes) != 3 {
		t.Fatalf("%d lanes for 3 clients", len(three.Lanes))
	}
	if !reflect.DeepEqual(laneBodies(one, 0), laneBodies(three, 0)) {
		t.Fatal("client 0's edit chain changed with the number of clients")
	}
	if reflect.DeepEqual(laneBodies(three, 0), laneBodies(three, 1)) {
		t.Fatal("clients 0 and 1 got the same edit chain")
	}
}

func TestColdCompileProgramsAreDistinct(t *testing.T) {
	w, err := NewWorkload(coldCompile, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(distinct(w.Timed())); got != len(w.Timed()) {
		t.Fatalf("%d distinct programs among %d cold requests", got, len(w.Timed()))
	}
}

// disk_spill must miss memory on every request: each program recurs
// only after every other program of the set, whose blocks alone
// overflow both LRU tiers.
func TestDiskSpillCyclesThroughTheWorkingSet(t *testing.T) {
	w, err := NewWorkload(diskSpill, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := len(w.Fill)
	if others := (n - 1) * 25; others <= w.MemEntries || others <= w.DeltaEntries {
		t.Fatalf("%d blocks of other programs fit the memory caps %d/%d", others, w.MemEntries, w.DeltaEntries)
	}
	last := map[int]int{}
	for i, p := range w.Shared {
		if j, ok := last[p]; ok && i-j != n {
			t.Fatalf("program %d requested at %d and again at %d, want a gap of %d", p, j, i, n)
		}
		last[p] = i
	}
	if len(last) != n {
		t.Fatalf("%d of %d programs requested", len(last), n)
	}
}

func timedBodies(w *Workload) [][]byte {
	var out [][]byte
	for _, p := range w.Timed() {
		out = append(out, w.Bodies[p])
	}
	return out
}

func laneBodies(w *Workload, lane int) [][]byte {
	var out [][]byte
	for _, p := range w.Lanes[lane] {
		out = append(out, w.Bodies[p])
	}
	return out
}
