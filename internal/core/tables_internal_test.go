package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"rocksalt/internal/grammar"
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
// a 200-byte noCF chain — still loads, gets no flat table, and verifies
// on the scalar path with the verdicts of the reference engine.
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
			t.Errorf("%d zero bytes: parse modes %+v, want every shard scalar", len(code), got.Stats)
		}
	}
}
