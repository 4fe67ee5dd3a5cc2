package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rocksalt/internal/grammar"
	"rocksalt/internal/policy"
)

// bundleHead returns the magic and parameter block of a NaCl-32 bundle.
func bundleHead(t *testing.T) *bytes.Buffer {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(tableMagic)
	if err := writeParams(&b, PolicyInfo{Name: "nacl-32", BundleSize: 32, MaskLen: 3}, false); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestTruncatedBundleAllocation: a 64-byte bundle that declares the
// largest fused automaton the format allows must fail having allocated
// about what it holds, not the 32 MiB of rows it only claims.
func TestTruncatedBundleAllocation(t *testing.T) {
	b := bundleHead(t)
	binary.Write(b, binary.LittleEndian, uint32(1<<16)) // fused state count
	binary.Write(b, binary.LittleEndian, uint16(0))     // start state
	b.Write(make([]byte, 64-b.Len()))                   // the first tag bytes
	bundle := b.Bytes()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewCheckerFromTables(bytes.NewReader(bundle))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated bundle loaded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("loading a %d-byte truncated bundle allocated %d bytes (%v)", len(bundle), got, err)
	}
}

// chainDFA accepts exactly the string of k copies of byte b: states
// 0..k-1 walk the chain, k accepts, and k+1 is the reject sink.
func chainDFA(b byte, k int) *grammar.DFA {
	d := &grammar.DFA{
		Accepts: make([]bool, k+2),
		Rejects: make([]bool, k+2),
		Table:   make([][256]uint16, k+2),
	}
	d.Accepts[k], d.Rejects[k+1] = true, true
	for s := range d.Table {
		for c := range d.Table[s] {
			d.Table[s][c] = uint16(k + 1)
		}
		if s < k {
			d.Table[s][b] = uint16(s + 1)
		}
	}
	return d
}

// TestLargeAutomatonVerifiesScalar: the lanes walk a flat table of at
// most flatStates states. A bundle whose fused product is larger — here
// a 200-byte noCF chain — still loads, gets no flat table, and the
// reference loop parses every shard, with the verdicts of the
// reference engine.
func TestLargeAutomatonVerifiesScalar(t *testing.T) {
	set := &DFASet{MaskedJump: chainDFA(0xff, 1), NoControlFlow: chainDFA(0x00, 200), DirectJump: chainDFA(0xfe, 1)}
	var b bytes.Buffer
	if err := set.WriteTables(&b, PolicyInfo{Name: "chain", BundleSize: 256, MaskLen: 3}, false); err != nil {
		t.Fatal(err)
	}
	c, err := NewCheckerFromTables(&b)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.fused.table); n <= flatStates || c.fused.flat != nil {
		t.Fatalf("%d fused states: flat table %v, want a product over %d states and none", n, c.fused.flat != nil, flatStates)
	}
	img := make([]byte, 1024)
	for _, code := range [][]byte{img[:200], img[:256], img[:1000]} {
		ref := c.VerifyWith(code, VerifyOptions{Workers: 1, Engine: EngineReference})
		got := c.VerifyWith(code, VerifyOptions{Workers: 1})
		if got.Safe != ref.Safe || !reflect.DeepEqual(got.Violations, ref.Violations) {
			t.Errorf("%d zero bytes: default engine Safe=%v, reference Safe=%v", len(code), got.Safe, ref.Safe)
		}
		if got.Stats.LaneBatches != 0 || got.Stats.ScalarFallbacks+got.Stats.Restarts != got.Stats.Shards {
			t.Errorf("%d zero bytes: parse modes %+v, want every shard on the reference loop", len(code), got.Stats)
		}
	}
}

// TestFlatMaskedRemap: the lanes' flat table is the restart-closed
// table in the flat numbering, where the direct-jump end D takes nc and
// the states from nc on move up by one. In it every transition into a
// masked-pair accept on a byte that is not the call form's modrm (FF
// /2) goes to a class-1 state, so such a pair ends like a plain
// instruction and never stops the lanes; every call-form one stays the
// eventful accept (at or above rec), where laneEvent applies the
// AlignedCalls check; every transition into the pure direct accept P
// goes to D with no event bit, so a direct jump never stops the lanes
// either; D's row is the class-1 row; and every other entry is the
// restart-closed table's, renumbered. Those are the low 7 bits of each
// byte-wide entry; bit 7 (laneEventBit) is set exactly when that target
// is eventful. Each shipped automaton has exactly one P, and its guard
// (directEnds) passes.
func TestFlatMaskedRemap(t *testing.T) {
	embedded, err := NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	checkers := map[string]*Checker{"embedded": embedded}
	for _, spec := range []policy.Spec{policy.NaCl16(), policy.REINS()} {
		com, err := policy.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		if checkers[spec.Name], err = NewCheckerFromPolicy(com); err != nil {
			t.Fatal(err)
		}
	}
	for name, c := range checkers {
		f := c.fused
		if f.fd != f.nc || f.fnc != f.nc+1 {
			t.Fatalf("%s: D band [%d, %d), want D alone at nc %d", name, f.fd, f.fnc, f.nc)
		}
		num := func(s uint16) uint16 {
			if int(s) >= f.nc {
				return s + 1
			}
			return s
		}
		rec := int(num(uint16(f.rec)))
		var ps []uint16
		for s, g := range f.tags {
			if g == tagAccDirect {
				ps = append(ps, uint16(s))
			}
		}
		if len(ps) != 1 {
			t.Fatalf("%s: pure direct accepts %v, want exactly one", name, ps)
		}
		if f.fstart != int(num(uint16(f.start))) || len(f.ftags) != len(f.tags)+1 || f.ftags[f.fd] != tagAccDirect {
			t.Fatalf("%s: flat start %d and %d flat tags (D's %#x), want %d, %d and %#x",
				name, f.fstart, len(f.ftags), f.ftags[f.fd], num(uint16(f.start)), len(f.tags)+1, tagAccDirect)
		}
		remapped, calls, directs := 0, 0, 0
		for s := range f.table {
			src := &f.table[s]
			if s >= f.quiet && s < f.nc {
				src = &f.table[f.start]
			}
			r := int(num(uint16(s)))
			if f.ftags[r] != f.tags[s] {
				t.Fatalf("%s: flat tag %d = %#x, want state %d's %#x", name, r, f.ftags[r], s, f.tags[s])
			}
			for b, want := range src {
				e := f.flat[r<<8|b]
				got := uint16(e &^ laneEventBit)
				if eventful := int(got) >= rec; eventful != (e&laneEventBit != 0) {
					t.Fatalf("%s: flat[%d][%#x] = %#x: event bit %v, but target %d against rec %d",
						name, r, b, e, e&laneEventBit != 0, got, rec)
				}
				switch {
				case want == ps[0]:
					directs++
					if int(got) != f.fd {
						t.Fatalf("%s: flat[%d][%#x] = %d, want D (%d) for the pure direct accept %d", name, r, b, got, f.fd, want)
					}
				case f.tags[want]&tagAccMasked == 0:
					if got != num(want) {
						t.Fatalf("%s: flat[%d][%#x] = %d, want %d", name, r, b, got, num(want))
					}
				case b>>3&7 == 2:
					calls++
					if got != num(want) || int(got) < rec {
						t.Fatalf("%s: call-form flat[%d][%#x] = %d, want the eventful %d (rec %d)", name, r, b, got, num(want), rec)
					}
				default:
					remapped++
					if int(got) < f.quiet || int(got) >= f.nc {
						t.Fatalf("%s: masked flat[%d][%#x] = %d, want a class-1 state in [%d, %d)", name, r, b, got, f.quiet, f.nc)
					}
				}
			}
		}
		if d, c1 := f.flat[f.fd<<8:][:256], f.flat[f.quiet<<8:][:256]; !bytes.Equal(d, c1) {
			t.Fatalf("%s: D's row differs from the class-1 row", name)
		}
		if remapped == 0 || calls == 0 || directs == 0 {
			t.Fatalf("%s: %d remapped and %d call-form masked transitions and %d into P, want all three", name, remapped, calls, directs)
		}
	}
}

// trieDFA accepts exactly the given byte strings: state 0 is the start
// and 1 the reject sink.
func trieDFA(words ...[]byte) *grammar.DFA {
	d := &grammar.DFA{}
	node := func() uint16 {
		var row [256]uint16
		for b := range row {
			row[b] = 1
		}
		d.Table = append(d.Table, row)
		d.Accepts = append(d.Accepts, false)
		d.Rejects = append(d.Rejects, false)
		return uint16(len(d.Table) - 1)
	}
	node()
	node()
	d.Rejects[1] = true
	for _, w := range words {
		s := 0
		for _, b := range w {
			if d.Table[s][b] == 1 {
				n := node()
				d.Table[s][b] = n
			}
			s = int(d.Table[s][b])
		}
		d.Accepts[s] = true
	}
	return d
}

// TestDirectEndGuard: a pure direct accept becomes D only if no walk
// reaches it after an earlier noCF or direct accept in the same
// instruction, where the stop rule takes that earlier accept. Two
// hand-built automata share a masked pair (eb 01 02) and a direct jump
// (eb 90, jmp -112). In the guarded one noCF also accepts eb alone, so
// eb 90 is two instructions, and the direct accept after it is reached
// only past a recorded noCF accept (masked is still live after eb): it
// must stay eventful. In the other, noCF accepts only the NOP, and the
// direct accept becomes D. Each places eb 90 in a 256-byte NOP image
// (four 64-byte lanes) and must match EngineReference with the restart
// count pinned: every jump whose target leaves the image, and eb 90
// across the first lane seam, restart the shard.
func TestDirectEndGuard(t *testing.T) {
	pair, jump := []byte{0xeb, 0x01, 0x02}, []byte{0xeb, 0x90}
	for _, tc := range []struct {
		name    string
		noCF    *grammar.DFA
		d       bool
		restart map[int]bool
	}{
		{"guarded", trieDFA([]byte{0x90}, []byte{0xeb}), false, map[int]bool{0: false, 30: false, 63: true, 100: false, 200: false}},
		{"direct end", trieDFA([]byte{0x90}), true, map[int]bool{0: true, 30: true, 63: true, 100: true, 200: false}},
	} {
		set := &DFASet{MaskedJump: trieDFA(pair), NoControlFlow: tc.noCF, DirectJump: trieDFA(jump)}
		var b bytes.Buffer
		if err := set.WriteTables(&b, PolicyInfo{Name: tc.name, BundleSize: 32, MaskLen: 2}, false); err != nil {
			t.Fatal(err)
		}
		c, err := NewCheckerFromTables(&b)
		if err != nil {
			t.Fatal(err)
		}
		f := c.fused
		if hasD := f.fnc > f.fd; hasD != tc.d {
			t.Fatalf("%s: D band [%d, %d), want a D: %v", tc.name, f.fd, f.fnc, tc.d)
		}
		// Entries into the pure direct accept (eventful, so at its own
		// number moved up by D's row, if any): every one an event in the
		// guarded automaton, none left in the other.
		into := 0
		for s := range f.table {
			if f.tags[s] != tagAccDirect {
				continue
			}
			for r := range f.ftags {
				for by := 0; by < 256; by++ {
					if e := f.flat[r<<8|by]; int(e&^laneEventBit) == s+f.fnc-f.fd {
						into++
						if e&laneEventBit == 0 {
							t.Fatalf("%s: flat[%d][%#x] enters the pure direct accept without an event", tc.name, r, by)
						}
					}
				}
			}
		}
		if (into > 0) == tc.d {
			t.Fatalf("%s: %d flat entries into the pure direct accept, want some only without a D", tc.name, into)
		}
		for off, restart := range tc.restart {
			img := bytes.Repeat([]byte{0x90}, 256)
			copy(img[off:], jump)
			what := fmt.Sprintf("%s: eb 90 at offset %d", tc.name, off)
			ref := c.VerifyWith(img, VerifyOptions{Workers: 1, Engine: EngineReference})
			got := c.VerifyWith(img, VerifyOptions{Workers: 1})
			if got.Safe != ref.Safe || got.Total != ref.Total || !reflect.DeepEqual(got.Violations, ref.Violations) ||
				got.Stats.EngineInvariant() != ref.Stats.EngineInvariant() {
				t.Fatalf("%s: reports diverged\nref: %+v %+v\ngot: %+v %+v", what, ref.Violations, ref.Stats, got.Violations, got.Stats)
			}
			var want int64
			if restart {
				want = 1
			}
			if got.Stats.Restarts != want || got.Stats.LaneBatches != 1-want {
				t.Errorf("%s: %d restarts and %d lane batches, want %d and %d", what, got.Stats.Restarts, got.Stats.LaneBatches, want, 1-want)
			}
		}
	}
}
