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

// TestSWARAutoBudget pins the footprint gate on the default engine's
// SWAR upgrade: the 128 KiB pair map plus the walk rows in use must fit
// defaultSWARBudgetBytes, exactly at the boundary, and the shipped and
// runtime-compiled preset automata all fit it.
func TestSWARAutoBudget(t *testing.T) {
	// 2*(1<<16) + 2*112*4096 is exactly 1 MiB; one more state is over.
	for _, tc := range []struct {
		states, npcls int
		want          bool
	}{
		{112, 4096, true},
		{113, 4096, false},
		{flatStates + 1, 1, false}, // too many states for the packed walk
	} {
		f := &fusedDFA{table: make([][256]uint16, tc.states), stride: &strideTables{npcls: tc.npcls}}
		if got := f.swarAuto(); got != tc.want {
			t.Errorf("%d states x %d pair classes: swarAuto = %v, want %v", tc.states, tc.npcls, got, tc.want)
		}
	}
	if (&fusedDFA{table: make([][256]uint16, 1)}).swarAuto() {
		t.Error("swarAuto accepted an automaton without pair tables")
	}

	shipped, err := NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Checker{shipped, compiled(t, policy.NaCl16()), compiled(t, policy.REINS())} {
		if !c.fused.swarAuto() {
			t.Errorf("%s: swarAuto refused %d states x %d pair classes", c.params.name, len(c.fused.table), c.fused.stride.npcls)
		}
	}
}

func compiled(t *testing.T, spec policy.Spec) *Checker {
	t.Helper()
	com, err := policy.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCheckerFromPolicy(com)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

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

// TestPairTablesRefusedForLargeAutomaton: pair tables are walkable only
// for automata of at most flatStates states. A bundle whose fused
// product is larger — here a 200-byte noCF chain — still loads, but the
// constructor builds no pair tables for it, and both the default and
// the forced SWAR engine run the single-stride lanes, with the verdicts
// of the reference engine.
func TestPairTablesRefusedForLargeAutomaton(t *testing.T) {
	set := &DFASet{MaskedJump: chainDFA(0xff, 1), NoControlFlow: chainDFA(0x00, 200), DirectJump: chainDFA(0xfe, 1)}
	var b bytes.Buffer
	if err := set.WriteTables(&b, PolicyInfo{Name: "chain", BundleSize: 256, MaskLen: 3}, false); err != nil {
		t.Fatal(err)
	}
	c, err := NewCheckerFromTables(&b)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.fused.table); n <= flatStates || c.fused.stride != nil {
		t.Fatalf("%d fused states: pair tables %v, want a product over %d states and none", n, c.fused.stride != nil, flatStates)
	}
	for _, e := range []EngineKind{EngineFused, EngineSWAR} {
		if got := c.resolveEngine(VerifyOptions{Engine: e}); got != EngineLanes {
			t.Errorf("engine %d resolved to %d, want the lanes", e, got)
		}
	}
	img := make([]byte, 1024)
	for _, code := range [][]byte{img[:200], img[:256], img[:1000]} {
		ref := c.VerifyWith(code, VerifyOptions{Workers: 1, Engine: EngineReference})
		if got := c.VerifyWith(code, VerifyOptions{Workers: 1}); got.Safe != ref.Safe || !reflect.DeepEqual(got.Violations, ref.Violations) {
			t.Errorf("%d zero bytes: default engine Safe=%v, reference Safe=%v", len(code), got.Safe, ref.Safe)
		}
	}
}
