package cluster

import (
	"crypto/sha256"
	"sync"
	"testing"
)

// TestMemStoreConcurrent drives one MemStore from several goroutines
// (run it under -race): every key written is read back, Put copies its
// input, Keys comes back sorted, and Delete removes.
func TestMemStoreConcurrent(t *testing.T) {
	s := NewMemStore()
	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := sha256.Sum256([]byte{byte(w), byte(i)})
				data := []byte{byte(w), byte(i)}
				s.Put(key, data)
				data[0] = 0xff // the store holds its own copy
				if got, ok := s.Get(key); !ok || got[0] != byte(w) || got[1] != byte(i) {
					t.Errorf("Get(%d,%d) = %v, %v", w, i, got, ok)
				}
				_ = s.Len()
				_ = s.Keys()
			}
		}(w)
	}
	wg.Wait()
	if got := s.Len(); got != workers*perWorker {
		t.Fatalf("Len = %d, want %d", got, workers*perWorker)
	}
	keys := s.Keys()
	for i := 1; i < len(keys); i++ {
		if string(keys[i-1][:]) >= string(keys[i][:]) {
			t.Fatalf("Keys not sorted at %d", i)
		}
	}
	for _, k := range keys {
		s.Delete(k)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len after deleting every key = %d", got)
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Fatal("Get found a deleted key")
	}
}
