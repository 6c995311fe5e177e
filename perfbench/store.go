package main

import (
	"crypto/sha256"
	"sync/atomic"

	"aviv/internal/diskcache"
)

// tracedStore wraps a *diskcache.Cache as the server's persistent tier,
// counting and timing every call. It forwards Delete and Stats too: the
// delta engine type-asserts cover.DeletableStore to invalidate entries
// and Server.Stats type-asserts Stats(), so a wrapper without them
// would send the traced server down different paths.
type tracedStore struct {
	c *diskcache.Cache
	// tr is the tracer spans go to; nil records no spans.
	tr atomic.Pointer[Tracer]
	// req and parent attribute spans to a request. Only the serial
	// replay sets them; on the served path they stay 0.
	req    int
	parent int64

	gets, hits, puts atomic.Int64
}

func newTracedStore(c *diskcache.Cache) *tracedStore { return &tracedStore{c: c} }

func (s *tracedStore) Get(key [sha256.Size]byte) ([]byte, bool) {
	tr := s.tr.Load()
	id := tr.Begin("diskcache.get", s.req, s.parent)
	data, ok := s.c.Get(key)
	tr.End(id)
	s.gets.Add(1)
	if ok {
		s.hits.Add(1)
	}
	return data, ok
}

func (s *tracedStore) Put(key [sha256.Size]byte, data []byte) {
	tr := s.tr.Load()
	id := tr.Begin("diskcache.put", s.req, s.parent)
	s.c.Put(key, data)
	tr.End(id)
	s.puts.Add(1)
}

func (s *tracedStore) Delete(key [sha256.Size]byte) { s.c.Delete(key) }

func (s *tracedStore) Stats() diskcache.Stats { return s.c.Stats() }

// storeCounts is a snapshot of the wrapper's call counters.
type storeCounts struct{ gets, hits, puts int64 }

func (s *tracedStore) counts() storeCounts {
	return storeCounts{s.gets.Load(), s.hits.Load(), s.puts.Load()}
}
