package main

import (
	"crypto/sha256"
	"testing"

	"aviv"
	"aviv/internal/cover"
	"aviv/internal/diskcache"
	"aviv/internal/server"
)

// The traced server must take the same paths as the untraced one: the
// delta engine invalidates through cover.DeletableStore, and
// Server.Stats reports the disk tier only when the store has Stats().
func TestTracedStoreForwardsDeleteAndStats(t *testing.T) {
	disk, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTracedStore(disk)
	var store cover.EntryStore = ts
	del, ok := store.(cover.DeletableStore)
	if !ok {
		t.Fatal("wrapper does not implement cover.DeletableStore")
	}
	stats, ok := store.(interface{ Stats() diskcache.Stats })
	if !ok {
		t.Fatal("wrapper has no Stats method")
	}

	key := sha256.Sum256([]byte("block"))
	store.Put(key, []byte("covering"))
	if got, ok := store.Get(key); !ok || string(got) != "covering" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	del.Delete(key)
	if _, ok := store.Get(key); ok {
		t.Fatal("entry still served after Delete")
	}
	if st := stats.Stats(); st.Writes != 1 || st.Hits != 1 || st.Deletes != 1 {
		t.Fatalf("Stats = %+v, want 1 write, 1 hit, 1 delete", st)
	}
	if c := ts.counts(); c != (storeCounts{gets: 2, hits: 1, puts: 1}) {
		t.Fatalf("counts = %+v", c)
	}

	srv := server.New(server.Config{Options: aviv.Options{DiskCache: store}, Delta: true})
	if srv.Stats().Disk == nil {
		t.Fatal("server stats lost the disk section behind the wrapper")
	}
}
