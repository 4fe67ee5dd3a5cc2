// Package bitset implements packed fixed-length bit vectors for the
// verification engine's boundary maps. The engine used to allocate two
// full-image []bool slices per run; a Set stores the same information in
// 1/8 the memory, clears in 1/8 the time, and — because it is reused
// through the engine's scratch pool — makes steady-state verification
// allocation-free.
//
// Concurrency contract: distinct goroutines may mutate a Set without
// synchronization only if they own disjoint *word* ranges (bit indices
// that never share an index/64). The engine's shard decomposition
// guarantees this: shards start at multiples of ShardBytes, which is a
// multiple of 64.
package bitset

import mathbits "math/bits"

const wordBits = 64

// Set is a fixed-length packed bit vector. The zero value is an empty
// set of length 0; Reset gives it a length.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set of n bits, all clear.
func New(n int) *Set {
	s := &Set{}
	s.Reset(n)
	return s
}

// Reset resizes the set to n bits and clears every bit, reusing the
// backing array whenever it is large enough.
func (s *Set) Reset(n int) {
	words := (n + wordBits - 1) / wordBits
	if cap(s.words) < words {
		s.words = make([]uint64, words)
	} else {
		s.words = s.words[:words]
		clear(s.words)
	}
	s.n = n
}

// Resize sets the length to n bits, preserving the bits below
// min(Len, n) — unlike Reset, which clears. Bits at indices >= n are
// cleared, so a shrink followed by a grow never resurrects stale bits
// and CountRange stays exact. The delta verifier uses it to keep
// retained boundary bitmaps across image size changes.
func (s *Set) Resize(n int) {
	words := (n + wordBits - 1) / wordBits
	switch old := len(s.words); {
	case words <= old:
		s.words = s.words[:words]
	case cap(s.words) >= words:
		s.words = s.words[:words]
		clear(s.words[old:])
	default:
		w := make([]uint64, words)
		copy(w, s.words)
		s.words = w
	}
	if words > 0 && n%wordBits != 0 {
		s.words[words-1] &= 1<<(uint(n)%wordBits) - 1
	}
	s.n = n
}

// Len returns the length in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i. It panics if i is out of range (via the bounds check
// on the word slice for i >= roundup(n); callers index within Len).
func (s *Set) Set(i int) {
	s.words[uint(i)/wordBits] |= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set.
func (s *Set) Get(i int) bool {
	return s.words[uint(i)/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Words exposes the backing word slice (bit i lives at words[i/64], bit
// i%64). Hot loops that set many monotonically increasing bits use it to
// buffer a whole word in a register instead of read-modify-writing
// memory per bit; the concurrency contract above applies unchanged.
func (s *Set) Words() []uint64 { return s.words }

// ClearRange clears bits [lo, hi). lo must be a multiple of 64 and the
// caller must own every word the range touches (the word containing
// hi-1 is cleared in full up to the set's length); the engine uses it
// to discard a shard's optimistic writes before re-parsing.
func (s *Set) ClearRange(lo, hi int) {
	if hi > s.n {
		hi = s.n
	}
	if lo >= hi {
		return
	}
	clear(s.words[uint(lo)/wordBits : (uint(hi)+wordBits-1)/wordBits])
}

// CountRange returns the number of set bits in [lo, hi), under
// ClearRange's ownership contract: lo must be a multiple of 64 and the
// word containing hi-1 is counted in full up to the set's length. The
// engine uses it to take each shard's instruction count over the words
// that shard owns.
func (s *Set) CountRange(lo, hi int) int {
	if hi > s.n {
		hi = s.n
	}
	c := 0
	if lo >= hi {
		return c
	}
	for _, w := range s.words[uint(lo)/wordBits : (uint(hi)+wordBits-1)/wordBits] {
		c += mathbits.OnesCount64(w)
	}
	return c
}

// Bools expands the set into a freshly allocated []bool of length
// Len() — the compatibility bridge to the engine's public Analyze
// signatures, which predate the packed representation.
func (s *Set) Bools() []bool {
	out := make([]bool, s.n)
	for i := range out {
		if s.words[uint(i)/wordBits]&(1<<(uint(i)%wordBits)) != 0 {
			out[i] = true
		}
	}
	return out
}
