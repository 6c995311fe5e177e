package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"

	"aviv/internal/cover"
)

// peerStore is the node's cover.EntryStore: a local tier (diskcache or
// in-memory) fronted by the cluster. Entry keys hash onto the same
// ring as compile requests, so every block entry has one owning shard. A local miss asks the owner over the wire; a
// local write replicates to the owner. Because the wire format is
// diskcache's checksummed framing, a corrupt transfer is rejected at
// decode and recorded as a miss — the covering engine then recompiles,
// so peering can slow a compile down but can never change its bytes.
type peerStore struct {
	n     *Node
	local cover.EntryStore
}

func (ps *peerStore) Get(key [sha256.Size]byte) ([]byte, bool) {
	if data, ok := ps.local.Get(key); ok {
		return data, true
	}
	n := ps.n
	owner := n.ring.Owner(hex.EncodeToString(key[:]), n.health.healthy)
	if owner == "" || owner == n.cfg.Self {
		return nil, false
	}
	payload, ok, err := n.fetchEntry(owner, key)
	if err != nil {
		n.health.markFailure(owner)
		n.srv.Counters().PeerMisses.Add(1)
		return nil, false
	}
	if !ok {
		n.srv.Counters().PeerMisses.Add(1)
		return nil, false
	}
	// Adopt the entry locally: repeated use of a hot peer-owned key
	// costs one RPC, not one per compile.
	ps.local.Put(key, payload)
	n.srv.Counters().PeerHits.Add(1)
	return payload, true
}

func (ps *peerStore) Put(key [sha256.Size]byte, data []byte) {
	ps.local.Put(key, data)
	n := ps.n
	if n.draining.Load() {
		return // Drain re-homes everything; don't race it entry by entry
	}
	owner := n.ring.Owner(hex.EncodeToString(key[:]), n.health.healthy)
	if owner == "" || owner == n.cfg.Self {
		return
	}
	if err := n.pushEntry(owner, key, data); err != nil {
		n.health.markFailure(owner)
		return
	}
	n.peerPushes.Add(1)
}

// Delete removes the local copy (the covering engine deletes entries
// it failed to decode). Best-effort and local-only: the owner's copy,
// if any, was independently verified on its own path.
func (ps *peerStore) Delete(key [sha256.Size]byte) {
	if del, ok := ps.local.(cover.DeletableStore); ok {
		del.Delete(key)
	}
}

// MemStore is a concurrency-safe, unbounded in-memory entry store: the
// local tier for nodes run without a disk cache.
type MemStore struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte][]byte
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore {
	return &MemStore{entries: make(map[[sha256.Size]byte][]byte)}
}

func (s *MemStore) Get(key [sha256.Size]byte) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.entries[key]
	return data, ok
}

// Put stores a copy of data, replacing any entry under key.
func (s *MemStore) Put(key [sha256.Size]byte, data []byte) {
	data = append([]byte(nil), data...)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[key] = data
}

func (s *MemStore) Delete(key [sha256.Size]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, key)
}

// Len returns the current entry count.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Keys enumerates the held keys in sorted order (for Drain).
func (s *MemStore) Keys() [][sha256.Size]byte {
	s.mu.Lock()
	keys := make([][sha256.Size]byte, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		return string(keys[i][:]) < string(keys[j][:])
	})
	return keys
}
