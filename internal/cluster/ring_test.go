package cluster

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	return keys
}

// TestRingDeterministic pins that ownership is a pure function of
// membership: node order at construction must not matter.
func TestRingDeterministic(t *testing.T) {
	a := NewRing([]string{"n1", "n2", "n3"})
	b := NewRing([]string{"n3", "n1", "n2", "n2"})
	for _, key := range ringKeys(1000) {
		if ao, bo := a.Owner(key, nil), b.Owner(key, nil); ao != bo {
			t.Fatalf("owner(%q) differs across construction orders: %q vs %q", key, ao, bo)
		}
	}
}

// TestRingBalance checks the virtual points spread ownership roughly
// evenly: with 4 nodes no shard may hold less than half or more than
// double its fair share.
func TestRingBalance(t *testing.T) {
	nodes := []string{"n1", "n2", "n3", "n4"}
	r := NewRing(nodes)
	counts := make(map[string]int)
	keys := ringKeys(10000)
	for _, key := range keys {
		counts[r.Owner(key, nil)]++
	}
	fair := len(keys) / len(nodes)
	for _, n := range nodes {
		if counts[n] < fair/2 || counts[n] > fair*2 {
			t.Errorf("node %s owns %d of %d keys; want within [%d, %d]", n, counts[n], len(keys), fair/2, fair*2)
		}
	}
}

// TestRingStabilityOnMembershipChange pins the consistent-hashing
// contract: removing one node only reassigns the keys that node owned.
func TestRingStabilityOnMembershipChange(t *testing.T) {
	before := NewRing([]string{"n1", "n2", "n3", "n4"})
	after := NewRing([]string{"n1", "n2", "n3"})
	moved := 0
	for _, key := range ringKeys(10000) {
		was, is := before.Owner(key, nil), after.Owner(key, nil)
		if was != "n4" {
			if is != was {
				t.Fatalf("key %q moved %s -> %s though its owner never left", key, was, is)
			}
			continue
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("n4 owned no keys; balance is broken")
	}
}

// TestRingOwnerSkipsUnhealthy pins ejection re-dispersal: keys owned
// by a down node fall to other nodes (deterministically, via the ring
// walk), while every other key keeps its owner — so ejecting a node
// does not shuffle the healthy shards' caches.
func TestRingOwnerSkipsUnhealthy(t *testing.T) {
	r := NewRing([]string{"n1", "n2", "n3", "n4"})
	alive := func(n string) bool { return n != "n4" }
	redispersed := 0
	for _, key := range ringKeys(10000) {
		full, degraded := r.Owner(key, nil), r.Owner(key, alive)
		if degraded == "n4" {
			t.Fatalf("key %q assigned to the down node", key)
		}
		if full != "n4" && degraded != full {
			t.Fatalf("key %q moved %s -> %s though its owner is healthy", key, full, degraded)
		}
		if full == "n4" {
			redispersed++
		}
	}
	if redispersed == 0 {
		t.Fatal("n4 owned no keys; balance is broken")
	}
	if r.Owner("anything", func(string) bool { return false }) != "" {
		t.Fatal("all-dead ring must return no owner")
	}
}

// TestRingEmpty covers the degenerate rings.
func TestRingEmpty(t *testing.T) {
	if owner := NewRing(nil).Owner("k", nil); owner != "" {
		t.Fatalf("empty ring returned owner %q", owner)
	}
	if owner := NewRing([]string{"only"}).Owner("k", nil); owner != "only" {
		t.Fatalf("single-node ring returned owner %q", owner)
	}
}
