package lru

import (
	"reflect"
	"testing"
)

// TestCache drives the LRU through scripted operation sequences and
// checks every result, the recency order, and the counters.
func TestCache(t *testing.T) {
	type op struct {
		kind string // "get", "add", "remove"
		key  string
		val  int
		want int  // value returned by get/add
		ok   bool // found (get), added (add), present (remove)
	}
	cases := []struct {
		name    string
		max     int
		ops     []op
		keys    []string
		stats   Stats
		evicted []string
	}{
		{
			name: "miss then hit",
			max:  2,
			ops: []op{
				{kind: "get", key: "a", ok: false},
				{kind: "add", key: "a", val: 1, want: 1, ok: true},
				{kind: "get", key: "a", want: 1, ok: true},
			},
			keys:  []string{"a"},
			stats: Stats{Len: 1, Hits: 1, Misses: 1},
		},
		{
			name: "add keeps the first insert",
			max:  2,
			ops: []op{
				{kind: "add", key: "a", val: 1, want: 1, ok: true},
				{kind: "add", key: "a", val: 2, want: 1, ok: false},
				{kind: "get", key: "a", want: 1, ok: true},
			},
			keys:  []string{"a"},
			stats: Stats{Len: 1, Hits: 1},
		},
		{
			name: "evicts least recently used",
			max:  2,
			ops: []op{
				{kind: "add", key: "a", val: 1, want: 1, ok: true},
				{kind: "add", key: "b", val: 2, want: 2, ok: true},
				{kind: "get", key: "a", want: 1, ok: true}, // b is now the victim
				{kind: "add", key: "c", val: 3, want: 3, ok: true},
				{kind: "get", key: "b", ok: false},
			},
			keys:    []string{"c", "a"},
			stats:   Stats{Len: 2, Hits: 1, Misses: 1, Evictions: 1},
			evicted: []string{"b"},
		},
		{
			name: "re-add refreshes recency",
			max:  2,
			ops: []op{
				{kind: "add", key: "a", val: 1, want: 1, ok: true},
				{kind: "add", key: "b", val: 2, want: 2, ok: true},
				{kind: "add", key: "a", val: 9, want: 1, ok: false},
				{kind: "add", key: "c", val: 3, want: 3, ok: true},
			},
			keys:    []string{"c", "a"},
			stats:   Stats{Len: 2, Evictions: 1},
			evicted: []string{"b"},
		},
		{
			name: "remove is not an eviction",
			max:  2,
			ops: []op{
				{kind: "add", key: "a", val: 1, want: 1, ok: true},
				{kind: "remove", key: "a", ok: true},
				{kind: "remove", key: "a", ok: false},
				{kind: "get", key: "a", ok: false},
			},
			keys:  []string{},
			stats: Stats{Misses: 1},
		},
		{
			name: "unbounded never evicts",
			max:  0,
			ops: []op{
				{kind: "add", key: "a", val: 1, want: 1, ok: true},
				{kind: "add", key: "b", val: 2, want: 2, ok: true},
				{kind: "add", key: "c", val: 3, want: 3, ok: true},
			},
			keys:  []string{"c", "b", "a"},
			stats: Stats{Len: 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var evicted []string
			c := New(tc.max, func(k string, _ int) { evicted = append(evicted, k) })
			for i, o := range tc.ops {
				var got int
				var ok bool
				switch o.kind {
				case "get":
					got, ok = c.Get(o.key)
				case "add":
					got, ok = c.Add(o.key, o.val)
				case "remove":
					ok = c.Remove(o.key)
				}
				if got != o.want || ok != o.ok {
					t.Fatalf("op %d %s(%s) = (%d, %v), want (%d, %v)", i, o.kind, o.key, got, ok, o.want, o.ok)
				}
			}
			if got := c.Keys(); !reflect.DeepEqual(got, tc.keys) {
				t.Errorf("keys = %v, want %v", got, tc.keys)
			}
			if got := c.Stats(); got != tc.stats {
				t.Errorf("stats = %+v, want %+v", got, tc.stats)
			}
			if !reflect.DeepEqual(evicted, tc.evicted) {
				t.Errorf("evicted = %v, want %v", evicted, tc.evicted)
			}
		})
	}
}
