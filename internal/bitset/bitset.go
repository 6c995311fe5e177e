// Package bitset provides word-packed uint64 bit sets sized at
// construction, the module's one bit-set type. It is the representation
// behind the covering engine's parallelism and reachability matrices,
// where candidate intersection, absorption, and preclusion tests of the
// maximal-clique enumeration become word-wise AND/ANDNOT loops instead
// of per-element boolean scans, and behind the gen/kill and fact sets
// of package dataflow, whose solver meets and transfers with Or, And
// and AndNot.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The capacity is fixed by New; all
// binary operations require operands created with the same size.
type Set []uint64

// New returns a set able to hold bits 0..n-1, all clear.
func New(n int) Set {
	return make(Set, (n+63)/64)
}

// Len returns the capacity in bits (a multiple of 64).
func (s Set) Len() int { return len(s) * 64 }

// Get reports whether bit i is set.
func (s Set) Get(i int) bool {
	return s[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i.
func (s Set) Set(i int) {
	s[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (s Set) Clear(i int) {
	s[i>>6] &^= 1 << (uint(i) & 63)
}

// Reset clears every bit, keeping the capacity.
func (s Set) Reset() {
	for i := range s {
		s[i] = 0
	}
}

// Copy overwrites s with src (same capacity).
func (s Set) Copy(src Set) {
	copy(s, src)
}

// And stores a AND b into s.
func (s Set) And(a, b Set) {
	for i := range s {
		s[i] = a[i] & b[i]
	}
}

// AndNot stores a AND NOT b into s.
func (s Set) AndNot(a, b Set) {
	for i := range s {
		s[i] = a[i] &^ b[i]
	}
}

// Or stores a OR b into s.
func (s Set) Or(a, b Set) {
	for i := range s {
		s[i] = a[i] | b[i]
	}
}

// IntersectsNone reports whether s and b share no set bit.
func (s Set) IntersectsNone(b Set) bool {
	for i := range s {
		if s[i]&b[i] != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every set bit of s is also set in b.
func (s Set) SubsetOf(b Set) bool {
	for i := range s {
		if s[i]&^b[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and b hold exactly the same bits.
func (s Set) Equal(b Set) bool {
	if len(s) != len(b) {
		return false
	}
	for i := range s {
		if s[i] != b[i] {
			return false
		}
	}
	return true
}

// Empty reports whether no bit is set.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls f for every set bit in ascending order.
func (s Set) ForEach(f func(i int)) {
	for wi, w := range s {
		base := wi << 6
		for w != 0 {
			f(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// AppendBits appends the indices of the set bits to dst in ascending
// order and returns the extended slice.
func (s Set) AppendBits(dst []int) []int {
	for wi, w := range s {
		base := wi << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// Matrix is a square bit matrix stored as one flat word slice: row i is
// the word range [i*stride, (i+1)*stride). Rows alias the backing slice,
// so mutating a row mutates the matrix.
type Matrix struct {
	n      int
	stride int
	words  []uint64
}

// NewMatrix returns an n x n zero matrix.
func NewMatrix(n int) *Matrix {
	stride := (n + 63) / 64
	return &Matrix{n: n, stride: stride, words: make([]uint64, n*stride)}
}

// N returns the dimension.
func (m *Matrix) N() int { return m.n }

// Row returns row i as a Set sharing the matrix storage.
func (m *Matrix) Row(i int) Set {
	return Set(m.words[i*m.stride : (i+1)*m.stride])
}

// Get reports entry (i, j).
func (m *Matrix) Get(i, j int) bool { return m.Row(i).Get(j) }

// SetSym sets both (i, j) and (j, i).
func (m *Matrix) SetSym(i, j int) {
	m.Row(i).Set(j)
	m.Row(j).Set(i)
}

// Equal reports whether two matrices have identical dimension and bits.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.n != o.n {
		return false
	}
	for i, w := range m.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}
