package cluster

import (
	"net/http"
	"sync"
	"time"
)

// healthTracker keeps per-peer liveness. Peers start healthy; one
// failure (a failed probe or a failed forward) ejects a peer — ring
// lookups walk past its points until a successful probe restores it.
// Tracking is reactive as well as probed, so a node that dies between
// probes is ejected by the first forward that hits it.
type healthTracker struct {
	mu   sync.Mutex
	down map[string]bool
}

func newHealthTracker() *healthTracker {
	return &healthTracker{down: make(map[string]bool)}
}

// healthy reports whether peer is currently in the ring's view.
func (t *healthTracker) healthy(peer string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.down[peer]
}

// healthyCount returns how many of peers are currently healthy.
func (t *healthTracker) healthyCount(peers []string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, p := range peers {
		if !t.down[p] {
			n++
		}
	}
	return n
}

// markSuccess restores peer.
func (t *healthTracker) markSuccess(peer string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[peer] = false
}

// markFailure ejects peer after a failed probe or forward.
func (t *healthTracker) markFailure(peer string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[peer] = true
}

// probe checks one peer's /healthz. Any transport error or non-200
// (a draining node answers 503 exactly so this path ejects it) counts
// as a failure.
func (t *healthTracker) probe(client *http.Client, peer string) {
	resp, err := client.Get(peer + "/healthz")
	if err != nil {
		t.markFailure(peer)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.markFailure(peer)
		return
	}
	t.markSuccess(peer)
}

// probeLoop re-probes every peer in peers (excluding self, which would
// be pointless) each interval until done closes. It is the recovery
// path: reactive failure marking ejects peers fast, the loop brings
// them back.
func (t *healthTracker) probeLoop(done <-chan struct{}, client *http.Client, peers []string, self string, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			for _, p := range peers {
				if p != self {
					t.probe(client, p)
				}
			}
		}
	}
}
