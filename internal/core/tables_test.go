package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

// bundleLayout locates the sections of an RSLT5 bundle: the fused
// automaton follows the policy-parameter block, and the three component
// DFAs follow it.
func bundleLayout(t *testing.T, b []byte) (fusedStart, dfaStart int) {
	t.Helper()
	nameLen := int(binary.LittleEndian.Uint16(b[14:]))
	fusedStart = 6 + 10 + nameLen + 4
	n := int(binary.LittleEndian.Uint32(b[fusedStart:]))
	dfaStart = fusedStart + 4 + 2 + n*513 + 4
	if !(fusedStart < dfaStart && dfaStart < len(b)) {
		t.Fatalf("bad bundle layout: fused %d, DFAs %d, %d bytes", fusedStart, dfaStart, len(b))
	}
	return fusedStart, dfaStart
}

// fusedEdit edits the fused section of a copy of bundle b in place of
// its tags (tags[i]) and transition rows (row(s)[c]), then recomputes
// the section's CRC, so the edit reaches the checks behind it.
type fusedEdit struct {
	b                  []byte
	n, start, fusedEnd int
	tags, rows         []byte
}

func editFused(t *testing.T, good []byte) *fusedEdit {
	t.Helper()
	b := append([]byte(nil), good...)
	fusedStart, dfaStart := bundleLayout(t, b)
	n := int(binary.LittleEndian.Uint32(b[fusedStart:]))
	tags := b[fusedStart+6 : fusedStart+6+n]
	return &fusedEdit{
		b:        b,
		n:        n,
		start:    int(binary.LittleEndian.Uint16(b[fusedStart+4:])),
		fusedEnd: dfaStart,
		tags:     tags,
		rows:     b[fusedStart+6+n : dfaStart-4],
	}
}

func (e *fusedEdit) next(s int, c byte) int {
	return int(binary.LittleEndian.Uint16(e.rows[s*512+2*int(c):]))
}

func (e *fusedEdit) setNext(s int, c byte, v int) {
	binary.LittleEndian.PutUint16(e.rows[s*512+2*int(c):], uint16(v))
}

// bundle recomputes the fused CRC and returns the edited bundle.
func (e *fusedEdit) bundle() []byte {
	sum := crc32.NewIEEE()
	sum.Write(e.tags)
	sum.Write(e.rows)
	binary.LittleEndian.PutUint32(e.b[e.fusedEnd-4:], sum.Sum32())
	return e.b
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
	if loaded.TableBundle() != "RSLT5" || loaded.PolicyInfo() != fresh.PolicyInfo() {
		t.Fatalf("loaded %s checker with %+v, want RSLT5 with %+v", loaded.TableBundle(), loaded.PolicyInfo(), fresh.PolicyInfo())
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
	if emb.TableBundle() != "RSLT5" {
		t.Fatalf("embedded checker reports bundle %q, want RSLT5", emb.TableBundle())
	}
	agreeOnCorpus(t, emb, fromGrammars, "embedded-bundle")
}

// TestNewCheckerFromTablesErrorPaths: every malformed table bundle must
// fail with a descriptive error, never a panic. The faults run on the
// bundle NewChecker ships; bundles in the formats older builds wrote
// are refused with a pointer to cmd/dfagen. Unprefixed cases corrupt
// the magic, the header, the fused table or the component DFAs. A v2
// or v3 prefix keeps the name of the format version a case first ran
// on (v2 introduced the fused automaton); all of them now run on the
// one RSLT5 layout. Edits behind a recomputed CRC reach the check that
// must catch them.
func TestNewCheckerFromTablesErrorPaths(t *testing.T) {
	set, err := core.BuildDFAs()
	if err != nil {
		t.Fatal(err)
	}
	good := core.EmbeddedTableBytes()
	fusedStart, dfaStart := bundleLayout(t, good)

	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte{}, good...))
	}
	fused := func(f func(e *fusedEdit)) []byte {
		e := editFused(t, good)
		f(e)
		return e.bundle()
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
		{"RSLT4 magic", mutate(func(b []byte) []byte { b[4] = '4'; return b }), regen},
		{"v1 body behind v2 magic", append([]byte("RSLT2\x00"), good[dfaStart:]...), regen},
		{"truncated header", mutate(func(b []byte) []byte { return b[:8] }), ""},
		{"truncated bundle", mutate(func(b []byte) []byte { return b[:len(b)/3] }), ""},
		{"truncated mid-component DFAs", mutate(func(b []byte) []byte { return b[:dfaStart+500] }), ""},
		{"truncated final checksum", mutate(func(b []byte) []byte { return b[:len(b)-2] }), ""},
		{"corrupted table byte", mutate(func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b }), ""},
		{"zero-state DFA", mutate(func(b []byte) []byte {
			copy(b[dfaStart:dfaStart+4], []byte{0, 0, 0, 0}) // first DFA's state count
			return b
		}), "implausible"},
		{"corrupted status byte", mutate(func(b []byte) []byte { b[dfaStart+10] ^= 0x04; return b }), ""},
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
		// the CRC of no bytes) in front of intact component DFAs.
		{"v3 zero-state fused", append(append(append([]byte{}, good[:fusedStart]...), make([]byte, 4+2+4)...), good[dfaStart:]...), "implausible"},
		// A fused-table edit behind a recomputed CRC passes the fused
		// section's own checks; the product check against the component
		// DFAs catches it.
		{"v3 corrupted fused table", fused(func(e *fusedEdit) {
			e.setNext(0, 0x90, e.next(0, 0x90)^0x01) // state 0, byte 0x90
		}), "disagrees with its component DFAs"},
		{"fused transition out of range", fused(func(e *fusedEdit) {
			e.setNext(e.n-1, 0xff, e.n)
		}), "core: fused transition out of range"},
		{"undefined fused tag bits", fused(func(e *fusedEdit) { e.tags[e.n-1] |= 0x80 }), "undefined tag bits"},
		{"v3 corrupted component table", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[dfaStart+4:], 0xFFFF) // first DFA's start state
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

// TestForgedFusedTableRefused forges the shipped bundle the way a
// consistent-looking attack would: the fused start row sends RET (0xc3)
// to NOP's successor, so the default engines would walk RET as a
// one-byte safe instruction, and the fused CRC is recomputed to match.
// The component DFAs still reject RET, so the loader's product check
// must refuse the bundle, naming the disagreement.
func TestForgedFusedTableRefused(t *testing.T) {
	e := editFused(t, core.EmbeddedTableBytes())
	e.setNext(e.start, 0xc3, e.next(e.start, 0x90))
	_, err := core.NewCheckerFromTables(bytes.NewReader(e.bundle()))
	if err == nil || !strings.Contains(err.Error(), "fused table disagrees with its component DFAs") {
		t.Fatalf("forged bundle: got %v, want the fused/component disagreement", err)
	}
}

// TestFusedSectionCorruptionRejected makes single-entry edits to the
// fused section of the shipped bundle, each behind a recomputed CRC:
// every tag byte, every transition of the start row, and interior
// transitions of every state. Each edit yields a table that differs
// from the minimal product automaton, so validate or the product check
// must refuse every one; none may load into a checker whose fused
// table disagrees with its component DFAs.
func TestFusedSectionCorruptionRejected(t *testing.T) {
	good := core.EmbeddedTableBytes()
	probe := editFused(t, good)
	n, start := probe.n, probe.start
	refused := func(what string, f func(e *fusedEdit)) {
		t.Helper()
		e := editFused(t, good)
		f(e)
		if _, err := core.NewCheckerFromTables(bytes.NewReader(e.bundle())); err == nil {
			t.Errorf("%s: edited fused table loaded", what)
		}
	}
	for s := 0; s < n; s++ {
		refused(fmt.Sprintf("tag of state %d", s), func(e *fusedEdit) { e.tags[s] ^= 0x01 })
	}
	for b := 0; b < 256; b++ {
		refused(fmt.Sprintf("start row byte %#02x", b), func(e *fusedEdit) {
			e.setNext(start, byte(b), (e.next(start, byte(b))+1)%n)
		})
	}
	for s := 0; s < n; s++ {
		for _, b := range []byte{0x00, 0x0f, 0x66, 0x83, 0xc3, 0xe0} {
			refused(fmt.Sprintf("state %d byte %#02x", s, b), func(e *fusedEdit) {
				e.setNext(s, b, (e.next(s, b)+1)%n)
			})
		}
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
