package bitset

import (
	"math/rand"
	"testing"
)

func TestSetBasics(t *testing.T) {
	s := New(130) // three words
	if got := s.Len(); got != 192 {
		t.Fatalf("Len = %d, want 192", got)
	}
	for _, i := range []int{0, 63, 64, 129} {
		if s.Get(i) {
			t.Fatalf("fresh set has bit %d", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	s.Clear(64)
	if s.Get(64) {
		t.Fatal("Clear(64) left the bit set")
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	want := []int{0, 63, 129}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
	if ap := s.AppendBits(nil); len(ap) != 3 || ap[2] != 129 {
		t.Fatalf("AppendBits = %v", ap)
	}
	s.Reset()
	if !s.Empty() {
		t.Fatal("Reset left bits set")
	}
}

// TestSetOpsAgainstBoolSlices drives every binary operation against a
// reference []bool model over random multi-word sets.
func TestSetOpsAgainstBoolSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 200
	for trial := 0; trial < 50; trial++ {
		a, b := New(n), New(n)
		ra, rb := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
				ra[i] = true
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
				rb[i] = true
			}
		}
		and, andnot, or := New(n), New(n), New(n)
		and.And(a, b)
		andnot.AndNot(a, b)
		or.Or(a, b)
		for i := 0; i < n; i++ {
			if and.Get(i) != (ra[i] && rb[i]) {
				t.Fatalf("And bit %d wrong", i)
			}
			if andnot.Get(i) != (ra[i] && !rb[i]) {
				t.Fatalf("AndNot bit %d wrong", i)
			}
			if or.Get(i) != (ra[i] || rb[i]) {
				t.Fatalf("Or bit %d wrong", i)
			}
		}
		cp := New(n)
		cp.Copy(a)
		if !cp.Equal(a) {
			t.Fatal("Copy not Equal")
		}
		// Clearing bit 0 breaks equality exactly when a has bit 0 set.
		cp.Clear(0)
		if cp.Equal(a) == a.Get(0) {
			t.Fatalf("Equal after Clear(0): got %v with a.Get(0)=%v", cp.Equal(a), a.Get(0))
		}
	}
}

func TestMatrix(t *testing.T) {
	for _, n := range []int{1, 7, 64, 65, 130} {
		m := NewMatrix(n)
		if m.N() != n {
			t.Fatalf("N = %d", m.N())
		}
		ref := make([][]bool, n)
		for i := range ref {
			ref[i] = make([]bool, n)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		for k := 0; k < n*2; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			m.SetSym(i, j)
			ref[i][j], ref[j][i] = true, true
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.Get(i, j) != ref[i][j] {
					t.Fatalf("n=%d: (%d,%d) = %v, want %v", n, i, j, m.Get(i, j), ref[i][j])
				}
			}
		}
		o := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if ref[i][j] {
					o.Row(i).Set(j)
				}
			}
		}
		if !m.Equal(o) {
			t.Fatalf("n=%d: Equal reconstruction failed", n)
		}
		if n > 1 {
			o.Row(0).Set(n - 1)
			o.Row(0).Clear(n - 1)
			if !m.Equal(o) {
				t.Fatal("Equal after set/clear round trip")
			}
			if ref[0][n-1] {
				o.Row(0).Clear(n - 1)
			} else {
				o.Row(0).Set(n - 1)
			}
			if m.Equal(o) {
				t.Fatal("Equal missed a differing bit")
			}
		}
	}
}
