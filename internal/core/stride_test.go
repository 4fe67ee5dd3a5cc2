package core_test

import (
	"bytes"
	"testing"

	"rocksalt/internal/core"
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
// checked exhaustively: for every (state, b1, b2), the pair-table
// entry equals two composed restart-closed single steps, or is the
// eventful sentinel exactly when either step leaves the inline bands.
func TestStrideComposition(t *testing.T) {
	c := checker(t)
	states, _, npcls := strideParams(t, c)
	rec := c.RecBoundaryForTest()
	if npcls < 1 || npcls > 4096 {
		t.Fatalf("implausible pair-class count %d", npcls)
	}
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
}

func strideParams(t *testing.T, c *core.Checker) (states, ncls, npcls int) {
	t.Helper()
	if err := c.EnsureStrideForTest(); err != nil {
		t.Fatalf("stride tables unavailable for the shipped automaton: %v", err)
	}
	return c.StrideParamsForTest()
}

// TestStrideSectionCorruptionRejected flips bytes inside the stride
// section of the bundle NewChecker ships: every flip must be caught
// (the section CRC plus the structural and semantic cross-checks),
// never silently accepted into a checker with different tables.
func TestStrideSectionCorruptionRejected(t *testing.T) {
	set, err := core.BuildDFAs()
	if err != nil {
		t.Fatal(err)
	}
	good := core.EmbeddedTableBytes()
	_, strideStart, strideEnd := bundleLayout(t, good, set)
	offsets := []int{
		strideStart,                               // ncls header
		strideStart + 100,                         // cls map
		strideStart + 400,                         // compact table
		(strideStart + strideEnd) / 2,             // pcls / dense interior
		strideEnd - 3,                             // section CRC itself
		strideStart + (strideEnd-strideStart)/4*3, // dense interior
	}
	for _, off := range offsets {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x01
		if _, err := core.NewCheckerFromTables(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flip at stride-section offset %d (section [%d,%d)) was accepted", off, strideStart, strideEnd)
		}
	}
}
