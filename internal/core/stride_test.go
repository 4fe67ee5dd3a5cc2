package core_test

import (
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/policy"
)

// TestByteClassPartition pins the byte-class compaction invariants on
// the shipped automaton: the class map is a true partition of the
// 256-byte alphabet by closed-table column equality, and the compacted
// states×classes table it induces fits comfortably in L1.
func TestByteClassPartition(t *testing.T) {
	c := checker(t)
	states, ncls, _ := strideParams(t, c)
	if ncls < 1 || ncls > 256 {
		t.Fatalf("implausible byte-class count %d", ncls)
	}
	seen := make([]bool, ncls)
	for b := 0; b < 256; b++ {
		cl := c.ByteClassForTest(byte(b))
		if cl < 0 || cl >= ncls {
			t.Fatalf("byte %#x maps to class %d, outside [0,%d)", b, cl, ncls)
		}
		seen[cl] = true
	}
	for cl, ok := range seen {
		if !ok {
			t.Fatalf("class %d has no bytes: not a partition", cl)
		}
	}
	// Same class <=> identical closed-table column.
	for b1 := 0; b1 < 256; b1++ {
		for b2 := b1 + 1; b2 < 256; b2++ {
			equal := true
			for s := 0; s < states; s++ {
				if c.ClosedStepForTest(s, byte(b1)) != c.ClosedStepForTest(s, byte(b2)) {
					equal = false
					break
				}
			}
			same := c.ByteClassForTest(byte(b1)) == c.ByteClassForTest(byte(b2))
			if same != equal {
				t.Fatalf("bytes %#x,%#x: same class %v but columns equal %v", b1, b2, same, equal)
			}
		}
	}
	if hot := states * ncls * 2; hot > 32<<10 {
		t.Fatalf("compacted table is %d bytes; it must fit a 32KiB L1", hot)
	}
	t.Logf("%d states, %d byte classes, compacted table %d bytes", states, ncls, states*ncls*2)
}

// TestStrideComposition is the defining equation of the pair tables,
// checked exhaustively on the shipped automaton and on the NaCl-16 and
// REINS-16 compiled checkers: for every (state, b1, b2), the pair-table
// entry equals two composed restart-closed single steps, or is the
// eventful sentinel exactly when either step leaves the inline bands.
// The pair-class counts are pinned, so a change to the construction
// that changes the partition (and with it the footprint) shows here.
func TestStrideComposition(t *testing.T) {
	for _, tc := range []struct {
		name  string
		c     *core.Checker
		npcls int
	}{
		{"shipped", checker(t), 3443},
		{"nacl-16", mustCompiled(t, policy.NaCl16()), 3466},
		{"reins-16", mustCompiled(t, policy.REINS()), 3304},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			states, _, npcls := strideParams(t, c)
			if npcls != tc.npcls {
				t.Fatalf("%d pair classes, want %d", npcls, tc.npcls)
			}
			rec := c.RecBoundaryForTest()
			for s := 0; s < states; s++ {
				for p := 0; p < 1<<16; p++ {
					b1, b2 := byte(p), byte(p>>8)
					w1 := c.ClosedStepForTest(s, b1)
					w2 := 0
					inline := w1 < rec
					if inline {
						w2 = c.ClosedStepForTest(w1, b2)
						inline = w2 < rec
					}
					s1, s2, ok := c.StrideStepForTest(s, b1, b2)
					if ok != inline {
						t.Fatalf("state %d pair %02x %02x: stride valid=%v, composed inline=%v", s, b1, b2, ok, inline)
					}
					if ok && (s1 != w1 || s2 != w2) {
						t.Fatalf("state %d pair %02x %02x: stride stores (%d,%d), composed steps give (%d,%d)",
							s, b1, b2, s1, s2, w1, w2)
					}
				}
			}
			t.Logf("%d states x 65536 pairs verified against composed closed steps (%d pair classes)", states, npcls)
		})
	}
}

func mustCompiled(t *testing.T, spec policy.Spec) *core.Checker {
	t.Helper()
	c, _ := compiledChecker(t, spec)
	return c
}

// strideParams returns the checker's stride table shape, failing the
// test if the constructor built no pair tables.
func strideParams(t *testing.T, c *core.Checker) (states, ncls, npcls int) {
	t.Helper()
	states, ncls, npcls = c.StrideParamsForTest()
	if npcls == 0 {
		t.Fatal("checker has no pair tables")
	}
	return states, ncls, npcls
}
