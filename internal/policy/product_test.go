package policy

import (
	"strings"
	"testing"
)

// TestCheckProduct holds CheckProduct to FuseProduct on every preset:
// the fused table FuseProduct builds passes, and a copy with one tag or
// one transition changed is refused with the disagreement named.
func TestCheckProduct(t *testing.T) {
	for _, spec := range []Spec{NaCl(), NaCl16(), REINS()} {
		com, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		m, n, d := com.MaskedJump, com.NoControlFlow, com.DirectJump
		start, tags, table, err := FuseProduct(m, n, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckProduct(start, tags, table, m, n, d); err != nil {
			t.Fatalf("%s: FuseProduct's own table refused: %v", spec.Name, err)
		}

		badTags := append([]uint8(nil), tags...)
		badTags[table[start][0x90]] ^= TagAccDirect
		badTable := append([][256]uint16(nil), table...)
		badTable[start][0xc3] = table[start][0x90] // RET walks like NOP
		for name, err := range map[string]error{
			"tag":        CheckProduct(start, badTags, table, m, n, d),
			"transition": CheckProduct(start, tags, badTable, m, n, d),
		} {
			if err == nil || !strings.Contains(err.Error(), "disagrees with its component DFAs") {
				t.Errorf("%s: edited %s: got %v, want the disagreement", spec.Name, name, err)
			}
		}
	}
}
