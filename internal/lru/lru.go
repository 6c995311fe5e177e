// Package lru is the repository's one bounded least-recently-used map:
// the per-block memory tier (cover.Cache) and its machine-fingerprint
// memo and the server's machine interner sit on it.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded least-recently-used map, safe for concurrent use.
// It counts hits, misses and evictions.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int // <= 0: unbounded
	items   map[K]*list.Element
	order   *list.List // front = most recently used; values are *entry[K, V]
	onEvict func(K, V)
	stats   Stats
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// Stats is a point-in-time snapshot of a Cache's counters.
type Stats struct {
	Len       int
	Hits      int64
	Misses    int64
	Evictions int64
}

// New returns a cache holding at most max entries (<= 0: unbounded).
// onEvict, when non-nil, is called with the cache locked for every
// entry dropped to respect the cap (not for Remove).
func New[K comparable, V any](max int, onEvict func(K, V)) *Cache[K, V] {
	return &Cache[K, V]{max: max, items: make(map[K]*list.Element), order: list.New(), onEvict: onEvict}
}

// Get returns the value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add inserts val under key unless key is already present, in which
// case the first insert is kept. Either way the entry becomes most
// recently used and its value is returned, with added reporting
// whether val went in.
func (c *Cache[K, V]) Add(key K, val V) (held V, added bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, false
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key, val})
	for c.max > 0 && len(c.items) > c.max {
		old := c.order.Remove(c.order.Back()).(*entry[K, V])
		delete(c.items, old.key)
		c.stats.Evictions++
		if c.onEvict != nil {
			c.onEvict(old.key, old.val)
		}
	}
	return val, true
}

// Remove drops key, reporting whether it was present.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
	return ok
}

// Keys returns the held keys, most recently used first.
func (c *Cache[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]K, 0, len(c.items))
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[K, V]).key)
	}
	return keys
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Len = len(c.items)
	return st
}
