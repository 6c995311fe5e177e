// Package cluster is the compile cluster's router: a consistent-hash
// ring keyed by the server's content fingerprint (server.RequestKey)
// sends every /compile request to its owning avivd, so each server's
// memory tier and single-flight group see only the keys it owns, and a
// health tracker fails requests over along the ring when the owner is
// down. The servers behind it are ordinary avivd processes that share
// one -cache-dir: a block any of them compiled is a disk hit for all of
// them, and no entry crosses the wire between servers. A dead server
// costs latency, never availability, and never a wrong answer (served
// bytes always come out of aviv.CompileSource or a checksum-verified
// disk entry).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// virtualNodes is the per-node virtual point count. 64 points per node
// keeps the ownership split within a few percent of even for small
// fleets while the ring stays tiny (a few KB).
const virtualNodes = 64

// Ring is an immutable consistent-hash ring over node names (base
// URLs). Keys map to the node owning the first ring point clockwise of
// the key's hash; membership changes move only the keys whose arc the
// joining or leaving node's points cover, which is what keeps shard
// caches warm across reconfiguration. Health is layered on lookup, not
// baked into the ring: Owner walks past points of unhealthy nodes, so
// an ejected node's keys re-disperse to its ring successors and snap
// back when it recovers.
type Ring struct {
	nodes  []string
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring with virtualNodes points per node. Duplicate
// node names collapse; order is irrelevant — two rings over the same
// membership are identical.
func NewRing(nodes []string) *Ring {
	seen := make(map[string]bool, len(nodes))
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for i := 0; i < virtualNodes; i++ {
			r.points = append(r.points, ringPoint{
				hash: pointHash(n + "#" + strconv.Itoa(i)),
				node: n,
			})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.node < b.node // total order even on (astronomically unlikely) hash ties
	})
	return r
}

// Nodes returns the ring membership, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// Owner returns the node owning key: the node of the first ring point
// at or clockwise of the key's hash whose node alive reports true
// (nil alive accepts every node). Returns "" only when no node is
// alive.
func (r *Ring) Owner(key string, alive func(string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := pointHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if alive == nil || alive(p.node) {
			return p.node
		}
	}
	return ""
}

// pointHash maps a string onto the ring's 64-bit hash space via
// sha256, matching the fingerprint family the rest of the compiler
// keys caches with.
func pointHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}
