package bitset_test

import (
	"math/rand"
	"testing"

	"rocksalt/internal/bitset"
)

func TestSetGetAgainstBools(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 16384} {
		s := bitset.New(n)
		ref := make([]bool, n)
		for k := 0; k < n/2+1 && n > 0; k++ {
			i := rng.Intn(n)
			s.Set(i)
			ref[i] = true
		}
		if s.Len() != n {
			t.Fatalf("Len = %d, want %d", s.Len(), n)
		}
		count := 0
		for i, want := range ref {
			if s.Get(i) != want {
				t.Fatalf("n=%d: Get(%d) = %v, want %v", n, i, s.Get(i), want)
			}
			if want {
				count++
			}
		}
		if got := s.CountRange(0, n); got != count {
			t.Fatalf("n=%d: CountRange(0, n) = %d, want %d", n, got, count)
		}
		// Per-range counts over word-aligned pieces (the engine's
		// per-shard split) sum to the whole.
		sum := 0
		for lo := 0; lo < n; lo += 192 {
			got, want := s.CountRange(lo, lo+192), 0
			for i := lo; i < lo+192 && i < n; i++ {
				if ref[i] {
					want++
				}
			}
			if got != want {
				t.Fatalf("n=%d: CountRange(%d, %d) = %d, want %d", n, lo, lo+192, got, want)
			}
			sum += got
		}
		if sum != count {
			t.Fatalf("n=%d: CountRange pieces sum to %d, want %d", n, sum, count)
		}
		bools := s.Bools()
		if len(bools) != n {
			t.Fatalf("Bools length %d, want %d", len(bools), n)
		}
		for i := range bools {
			if bools[i] != ref[i] {
				t.Fatalf("Bools[%d] = %v, want %v", i, bools[i], ref[i])
			}
		}
	}
}

func TestResetClearsAndReuses(t *testing.T) {
	s := bitset.New(128)
	s.Set(0)
	s.Set(127)
	s.Reset(128)
	if s.CountRange(0, s.Len()) != 0 {
		t.Fatal("Reset did not clear")
	}
	// Shrinking then growing within capacity must still be fully clear.
	s.Set(64)
	s.Reset(64)
	s.Reset(128)
	if s.Get(64) {
		t.Fatal("Reset leaked a bit from a larger previous length")
	}
	allocs := testing.AllocsPerRun(50, func() { s.Reset(100) })
	if allocs != 0 {
		t.Fatalf("Reset within capacity allocated %.1f times", allocs)
	}
}
