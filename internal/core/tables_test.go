package core_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
)

// agreeOnCorpus asserts two checkers produce the same verdict on a
// mixed corpus of compliant images, mutants, and the unsafe corpus.
func agreeOnCorpus(t *testing.T, loaded, fresh *core.Checker, what string) {
	t.Helper()
	gen := nacl.NewGenerator(77)
	for i := 0; i < 50; i++ {
		img, err := gen.Random(30)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Verify(img) != fresh.Verify(img) {
			t.Fatalf("%s checker disagrees on compliant image", what)
		}
		mut := append([]byte{}, img...)
		mut[i%len(mut)] ^= 0xff
		if loaded.Verify(mut) != fresh.Verify(mut) {
			t.Fatalf("%s checker disagrees on mutant", what)
		}
	}
	for name, img := range nacl.UnsafeCorpus() {
		if loaded.Verify(img) {
			t.Errorf("%s checker accepted %q", what, name)
		}
	}
}

// bundleLayout locates the sections of an RSLT4 bundle written for
// set: the fused automaton follows the policy-parameter block, and the
// stride section sits between it and the three component DFAs.
func bundleLayout(t *testing.T, b []byte, set *core.DFASet) (fusedStart, strideStart, strideEnd int) {
	t.Helper()
	nameLen := int(binary.LittleEndian.Uint16(b[14:]))
	fusedStart = 6 + 10 + nameLen + 4
	n := int(binary.LittleEndian.Uint32(b[fusedStart:]))
	strideStart = fusedStart + 4 + 2 + n*513 + 4
	strideEnd = len(b)
	for _, d := range []int{set.MaskedJump.NumStates(), set.NoControlFlow.NumStates(), set.DirectJump.NumStates()} {
		strideEnd -= 4 + 2 + d*513 + 4
	}
	if !(fusedStart < strideStart && strideStart < strideEnd && strideEnd < len(b)) {
		t.Fatalf("bad bundle layout: fused %d, stride [%d,%d), %d bytes", fusedStart, strideStart, strideEnd, len(b))
	}
	return fusedStart, strideStart, strideEnd
}

func TestTableRoundTrip(t *testing.T) {
	set, err := core.BuildDFAs()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewCheckerFromGrammars()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := set.WriteTables(&buf, fresh.PolicyInfo(), fresh.AlignedCalls); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.NewCheckerFromTables(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TableBundle() != "RSLT4" || loaded.PolicyInfo() != fresh.PolicyInfo() {
		t.Fatalf("loaded %s checker with %+v, want RSLT4 with %+v", loaded.TableBundle(), loaded.PolicyInfo(), fresh.PolicyInfo())
	}
	agreeOnCorpus(t, loaded, fresh, "table-loaded")
}

// TestEmbeddedBundleFresh: the checker the embedded bundle produces
// must agree with the grammar-compiled one. The bundle's bytes are
// pinned to the grammars by TestRuntimeDefaultMatchesEmbedded, the
// regeneration guard.
func TestEmbeddedBundleFresh(t *testing.T) {
	fromGrammars, err := core.NewCheckerFromGrammars()
	if err != nil {
		t.Fatal(err)
	}
	emb := checker(t)
	if emb.TableBundle() != "RSLT4" {
		t.Fatalf("embedded checker reports bundle %q, want RSLT4", emb.TableBundle())
	}
	agreeOnCorpus(t, emb, fromGrammars, "embedded-bundle")
}

// TestNewCheckerFromTablesErrorPaths: every malformed table bundle must
// fail with a descriptive error, never a panic. The faults run on the
// bundle NewChecker ships; bundles in the formats older builds wrote
// are refused with a pointer to cmd/dfagen. Unprefixed cases corrupt
// the magic, the header or the component DFAs under their checksums.
// A v2 or v3 prefix keeps the name of the format version a case first
// ran on, the ones that introduced the fused automaton and the stride
// section; all of them now run on the one RSLT4 layout.
func TestNewCheckerFromTablesErrorPaths(t *testing.T) {
	set, err := core.BuildDFAs()
	if err != nil {
		t.Fatal(err)
	}
	good := core.EmbeddedTableBytes()
	fusedStart, strideStart, strideEnd := bundleLayout(t, good, set)

	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte{}, good...))
	}
	const regen = "regenerate the bundle with cmd/dfagen"
	cases := []struct {
		name    string
		input   []byte
		wantSub string
	}{
		{"empty input", nil, "magic"},
		{"truncated magic", mutate(func(b []byte) []byte { return b[:3] }), "magic"},
		{"unknown version", mutate(func(b []byte) []byte { b[4] = '9'; return b }), regen},
		{"not a bundle at all", []byte("GARBAGE BYTES"), regen},
		{"RSLT1 magic", mutate(func(b []byte) []byte { b[4] = '1'; return b }), regen},
		{"RSLT3 magic", mutate(func(b []byte) []byte { b[4] = '3'; return b }), regen},
		{"v1 body behind v2 magic", append([]byte("RSLT2\x00"), good[strideEnd:]...), regen},
		{"truncated header", mutate(func(b []byte) []byte { return b[:8] }), ""},
		{"truncated bundle", mutate(func(b []byte) []byte { return b[:len(b)/3] }), ""},
		{"truncated final checksum", mutate(func(b []byte) []byte { return b[:len(b)-2] }), ""},
		{"corrupted table byte", mutate(func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }), ""},
		{"zero-state DFA", mutate(func(b []byte) []byte {
			copy(b[strideEnd:strideEnd+4], []byte{0, 0, 0, 0}) // first DFA's state count
			return b
		}), "implausible"},
		{"corrupted status byte", mutate(func(b []byte) []byte { b[strideEnd+10] ^= 0x04; return b }), ""},
		{"corrupted component table", mutate(func(b []byte) []byte { b[len(b)-100] ^= 0x01; return b }), ""},
		{"v2 zero-state fused", mutate(func(b []byte) []byte {
			copy(b[fusedStart:fusedStart+4], []byte{0, 0, 0, 0}) // fused state count
			return b
		}), "implausible"},
		{"v2 corrupted tag byte", mutate(func(b []byte) []byte { b[fusedStart+7] ^= 0x01; return b }), ""},
		{"v2 corrupted fused table", mutate(func(b []byte) []byte { b[fusedStart+2048] ^= 0x80; return b }), ""},
		{"v2 truncated fused section", mutate(func(b []byte) []byte { return b[:fusedStart+1024] }), ""},
		// A component-DFA edit behind a recomputed CRC passes the
		// checksum; the transition range check catches it.
		{"v2 corrupted component table", mutate(func(b []byte) []byte {
			n := set.DirectJump.NumStates()
			rows := len(b) - 4 - n*512
			binary.LittleEndian.PutUint16(b[rows:], 0xFFFF) // last DFA, state 0, byte 0x00
			binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[rows-n:len(b)-4]))
			return b
		}), "core: transition out of range"},
		// An empty fused section written consistently (count, start and
		// the CRC of no bytes) in front of an intact stride section.
		{"v3 zero-state fused", append(append(append([]byte{}, good[:fusedStart]...), make([]byte, 4+2+4)...), good[strideStart:]...), "implausible"},
		{"v3 truncated mid-stride", mutate(func(b []byte) []byte { return b[:strideStart+500] }), ""},
		{"v3 corrupted stride interior", mutate(func(b []byte) []byte {
			b[(strideStart+strideEnd)/2] ^= 0x01
			return b
		}), ""},
		// A fused-table edit behind a recomputed CRC passes the fused
		// section's own checks; the stride section's byte-class
		// cross-check catches it.
		{"v3 corrupted fused table", mutate(func(b []byte) []byte {
			n := int(binary.LittleEndian.Uint32(b[fusedStart:]))
			b[fusedStart+6+n+2*0x90] ^= 0x01 // state 0, byte 0x90
			binary.LittleEndian.PutUint32(b[strideStart-4:], crc32.ChecksumIEEE(b[fusedStart+6:strideStart-4]))
			return b
		}), "byte-class"},
		{"v3 corrupted component table", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[strideEnd+4:], 0xFFFF) // first DFA's start state
			return b
		}), "core: start state out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.NewCheckerFromTables(bytes.NewReader(tc.input))
			if err == nil {
				t.Fatalf("accepted a malformed bundle (checker %v)", c != nil)
			}
			if err.Error() == "" {
				t.Fatal("error has no message")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestTableCorruptionDetected(t *testing.T) {
	good := core.EmbeddedTableBytes()
	flip := func(i int, mask byte) []byte {
		b := append([]byte{}, good...)
		b[i] ^= mask
		return b
	}
	for name, b := range map[string][]byte{
		"bad magic":       flip(0, 0xff),
		"corrupted table": flip(len(good)/2, 0x01),
		"truncated":       good[:len(good)/3],
	} {
		if _, err := core.NewCheckerFromTables(bytes.NewReader(b)); err == nil {
			t.Errorf("%s bundle must be rejected", name)
		}
	}
}
