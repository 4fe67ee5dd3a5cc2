package core

import (
	"bytes"
	"encoding/binary"
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

// TestFlatMaskedRemap: in the lanes' flat table every transition into
// a masked-pair accept on a byte that is not the call form's modrm (FF
// /2) goes to a class-1 state, so such a pair ends like a plain
// instruction and never stops the lanes; every call-form one stays the
// eventful accept (>= rec), where laneEvent applies the AlignedCalls
// check; and every other entry is the restart-closed table's. Those are
// the low 7 bits of each byte-wide entry; bit 7 (laneEventBit) is set
// exactly when that target is eventful (>= rec).
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
		remapped, calls := 0, 0
		for s := range f.table {
			src := &f.table[s]
			if s >= f.quiet && s < f.nc {
				src = &f.table[f.start]
			}
			for b, want := range src {
				e := f.flat[s<<8|b]
				got := uint16(e &^ laneEventBit)
				if eventful := int(got) >= f.rec; eventful != (e&laneEventBit != 0) {
					t.Fatalf("%s: flat[%d][%#x] = %#x: event bit %v, but target %d against rec %d",
						name, s, b, e, e&laneEventBit != 0, got, f.rec)
				}
				switch {
				case f.tags[want]&tagAccMasked == 0:
					if got != want {
						t.Fatalf("%s: flat[%d][%#x] = %d, want %d", name, s, b, got, want)
					}
				case b>>3&7 == 2:
					calls++
					if got != want || int(got) < f.rec {
						t.Fatalf("%s: call-form flat[%d][%#x] = %d, want the eventful %d (rec %d)", name, s, b, got, want, f.rec)
					}
				default:
					remapped++
					if int(got) < f.quiet || int(got) >= f.nc {
						t.Fatalf("%s: masked flat[%d][%#x] = %d, want a class-1 state in [%d, %d)", name, s, b, got, f.quiet, f.nc)
					}
				}
			}
		}
		if remapped == 0 || calls == 0 {
			t.Fatalf("%s: %d remapped and %d call-form masked transitions, want both", name, remapped, calls)
		}
	}
}
