package grammar

import (
	"math/rand"
	"testing"
)

// A tiny table whose byte classes are known by construction: state 0
// distinguishes bytes by their low 2 bits, state 1 by bit 7, so the
// partition is (low 2 bits, bit 7) with 8 classes.
func classTestTable() [][256]uint16 {
	table := make([][256]uint16, 3)
	for b := 0; b < 256; b++ {
		table[0][b] = uint16(b & 3)
		table[1][b] = uint16(b >> 7)
		table[2][b] = 2
	}
	return table
}

func TestByteClassesKnownPartition(t *testing.T) {
	table := classTestTable()
	cls, n := ByteClasses(table)
	if n != 8 {
		t.Fatalf("expected 8 classes, got %d", n)
	}
	for b1 := 0; b1 < 256; b1++ {
		for b2 := 0; b2 < 256; b2++ {
			want := b1&3 == b2&3 && b1>>7 == b2>>7
			if (cls[b1] == cls[b2]) != want {
				t.Fatalf("bytes %#x,%#x: class equality %v, want %v", b1, b2, cls[b1] == cls[b2], want)
			}
		}
	}
	if cls[0] != 0 {
		t.Fatalf("class ids must be numbered by first occurrence; cls[0]=%d", cls[0])
	}
}

func TestByteClassesPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		ns := 1 + rng.Intn(12)
		table := make([][256]uint16, ns)
		// Few distinct columns so classes merge; successor values bounded
		// by the state count.
		for b := 0; b < 256; b++ {
			col := rng.Intn(6)
			for s := 0; s < ns; s++ {
				table[s][b] = uint16((col + s) % ns)
			}
		}
		cls, n := ByteClasses(table)
		// Class ids are dense in [0, n), numbered by first occurrence, and
		// two bytes share a class iff every state maps them alike.
		next := 0
		for b := 0; b < 256; b++ {
			if c := int(cls[b]); c > next || c >= n {
				t.Fatalf("trial %d: byte %#x has class %d; the next new class is %d of %d", trial, b, c, next, n)
			} else if c == next {
				next++
			}
		}
		if next != n {
			t.Fatalf("trial %d: %d classes inhabited, %d reported", trial, next, n)
		}
		for b1 := 0; b1 < 256; b1++ {
			for b2 := b1 + 1; b2 < 256; b2++ {
				equal := true
				for s := 0; s < ns; s++ {
					equal = equal && table[s][b1] == table[s][b2]
				}
				if (cls[b1] == cls[b2]) != equal {
					t.Fatalf("trial %d: bytes %#x,%#x: same class %v, equal columns %v", trial, b1, b2, cls[b1] == cls[b2], equal)
				}
			}
		}
	}
}
