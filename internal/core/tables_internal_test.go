package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"rocksalt/internal/policy"
)

// TestSWARAutoBudget pins the footprint gate on the default engine's
// SWAR upgrade: the 128 KiB pair map plus the dense rows must fit
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

// TestPairTablesRefusedForLargeAutomaton: pair tables are walkable only
// for automata of at most flatStates states, so a bundle that carries
// them for a larger one is refused before they are read, by name.
func TestPairTablesRefusedForLargeAutomaton(t *testing.T) {
	const n = flatStates + 1
	f := &fusedDFA{tags: make([]uint8, n), table: make([][256]uint16, n)}
	b := bundleHead(t)
	if err := writeFused(b, f); err != nil {
		t.Fatal(err)
	}
	binary.Write(b, binary.LittleEndian, uint16(1)) // byte classes
	b.Write(make([]byte, 256))                      // class map
	b.Write(make([]byte, 2*n))                      // compacted table
	binary.Write(b, binary.LittleEndian, uint16(stridePairCap))
	_, err := NewCheckerFromTables(bytes.NewReader(b.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "129 fused states") {
		t.Fatalf("pair tables for %d states: got %v, want an error naming the state count", n, err)
	}
}
