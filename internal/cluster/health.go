package cluster

import (
	"net/http"
	"sync"
	"time"
)

// healthTracker keeps per-node liveness. Nodes start healthy; one
// failure (a failed probe or a failed forward) ejects a node — ring
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

// healthy reports whether node is currently in the ring's view.
func (t *healthTracker) healthy(node string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.down[node]
}

// markSuccess restores node.
func (t *healthTracker) markSuccess(node string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[node] = false
}

// markFailure ejects node after a failed probe or forward.
func (t *healthTracker) markFailure(node string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.down[node] = true
}

// probe checks one node's /healthz. Any transport error or non-200
// counts as a failure.
func (t *healthTracker) probe(client *http.Client, node string) {
	resp, err := client.Get(node + "/healthz")
	if err != nil {
		t.markFailure(node)
		return
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.markFailure(node)
		return
	}
	t.markSuccess(node)
}

// probeLoop re-probes every node in nodes each interval until done
// closes. It is the recovery path: reactive failure marking ejects
// nodes fast, the loop brings them back.
func (t *healthTracker) probeLoop(done <-chan struct{}, client *http.Client, nodes []string, interval time.Duration) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			for _, n := range nodes {
				t.probe(client, n)
			}
		}
	}
}
