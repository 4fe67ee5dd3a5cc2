package grammar

import (
	"math/rand"
	"reflect"
	"testing"
)

// bitsOf parses "1010" into a bit slice.
func bitsOf(s string) []bool {
	var out []bool
	for _, c := range s {
		switch c {
		case '0':
			out = append(out, false)
		case '1':
			out = append(out, true)
		}
	}
	return out
}

func TestDenoteLeaves(t *testing.T) {
	if vs := Denote(Eps(), nil); len(vs) != 1 {
		t.Fatal("Eps must match empty")
	}
	if vs := Denote(Eps(), bitsOf("0")); len(vs) != 0 {
		t.Fatal("Eps must not match non-empty")
	}
	if vs := Denote(Void(), nil); len(vs) != 0 {
		t.Fatal("Void matches nothing")
	}
	if vs := Denote(Char(true), bitsOf("1")); len(vs) != 1 || vs[0] != true {
		t.Fatal("Char(1) must match '1' yielding true")
	}
	if vs := Denote(Char(true), bitsOf("0")); len(vs) != 0 {
		t.Fatal("Char(1) must not match '0'")
	}
	if vs := Denote(Any(), bitsOf("0")); len(vs) != 1 || vs[0] != false {
		t.Fatal("Any must match any single bit")
	}
}

func TestDenoteCatAltStar(t *testing.T) {
	g := Cat(Char(true), Char(false)) // "10"
	if !InDenotation(g, bitsOf("10")) {
		t.Fatal("cat must match 10")
	}
	if InDenotation(g, bitsOf("11")) || InDenotation(g, bitsOf("1")) {
		t.Fatal("cat must reject others")
	}
	a := Alt(Bits("10"), Bits("01"))
	if !InDenotation(a, bitsOf("10")) || !InDenotation(a, bitsOf("01")) {
		t.Fatal("alt must match both branches")
	}
	st := Star(Bits("10"))
	for _, s := range []string{"", "10", "1010", "101010"} {
		if !InDenotation(st, bitsOf(s)) {
			t.Fatalf("star must match %q", s)
		}
	}
	if InDenotation(st, bitsOf("1")) || InDenotation(st, bitsOf("100")) {
		t.Fatal("star must reject non-multiples")
	}
}

func TestBitsHelperAndThen(t *testing.T) {
	// The paper's "1110" $$ "1000" (the CALL rel32 opcode 0xE8).
	g := Then(Bits("1110"), Bits("1000"))
	if !InDenotation(g, BytesToBits([]byte{0xe8})) {
		t.Fatal("must match 0xe8")
	}
	if InDenotation(g, BytesToBits([]byte{0xe9})) {
		t.Fatal("must reject 0xe9")
	}
}

func TestFieldValue(t *testing.T) {
	g := Field(3)
	vs := Denote(g, bitsOf("101"))
	if len(vs) != 1 || vs[0].(uint64) != 5 {
		t.Fatalf("Field(3) on 101 = %v, want 5", vs)
	}
	vs = Denote(Field(8), BytesToBits([]byte{0xa7}))
	if len(vs) != 1 || vs[0].(uint64) != 0xa7 {
		t.Fatalf("Field(8) = %v, want 0xa7", vs)
	}
}

func TestUnsignedLE(t *testing.T) {
	vs := Denote(Word(), BytesToBits([]byte{0x78, 0x56, 0x34, 0x12}))
	if len(vs) != 1 || vs[0].(uint64) != 0x12345678 {
		t.Fatalf("Word = %v, want 0x12345678", vs)
	}
	vs = Denote(Halfword(), BytesToBits([]byte{0xcd, 0xab}))
	if len(vs) != 1 || vs[0].(uint64) != 0xabcd {
		t.Fatalf("Halfword = %v, want 0xabcd", vs)
	}
}

func TestBitsValue(t *testing.T) {
	g := BitsValue(5, 0b10110)
	if !InDenotation(g, bitsOf("10110")) {
		t.Fatal("BitsValue must match its pattern")
	}
	if InDenotation(g, bitsOf("10111")) {
		t.Fatal("BitsValue must reject other patterns")
	}
}

func TestOption(t *testing.T) {
	g := Option(Bits("11"))
	if !InDenotation(g, nil) || !InDenotation(g, bitsOf("11")) {
		t.Fatal("Option must match empty and the pattern")
	}
	if InDenotation(g, bitsOf("1")) {
		t.Fatal("Option must reject partial")
	}
}

func TestMapTransformsValues(t *testing.T) {
	g := Map(Field(4), func(v Value) Value { return v.(uint64) * 2 })
	vs := Denote(g, bitsOf("0111"))
	if len(vs) != 1 || vs[0].(uint64) != 14 {
		t.Fatalf("Map = %v, want 14", vs)
	}
}

func TestDerivBasic(t *testing.T) {
	g := Bits("10")
	d := Deriv(true, g)
	if d.IsVoid() {
		t.Fatal("deriv of '10' by 1 must not be void")
	}
	if !Deriv(false, g).IsVoid() {
		t.Fatal("deriv of '10' by 0 must be void")
	}
	d2 := Deriv(false, d)
	vs := Extract(d2)
	if len(vs) != 1 {
		t.Fatalf("extract after full match = %v", vs)
	}
}

func TestNullAndExtract(t *testing.T) {
	if len(Extract(Null(Star(Char(true))))) != 1 {
		t.Fatal("null of star accepts empty")
	}
	if !Null(Char(true)).IsVoid() {
		t.Fatal("null of char is void")
	}
	if len(Extract(Eps())) != 1 {
		t.Fatal("extract of eps")
	}
	if len(Extract(Char(true))) != 0 {
		t.Fatal("extract of char must be empty")
	}
}

// TestAdequacy is the executable form of the paper's adequacy result: the
// derivative parser computes exactly the denotational parse set.
func TestAdequacy(t *testing.T) {
	grammars := []*Grammar{
		Bits("1010"),
		Alt(Bits("10"), Bits("01"), Bits("0011")),
		Cat(Field(3), Bits("1")),
		Star(Bits("10")),
		Then(Bits("11"), Field(2)),
		Option(Bits("110")),
		Cat(Star(Char(true)), Char(false)),
		Map(Cat(Any(), Any()), func(v Value) Value { return v.(Pair) }),
	}
	rng := rand.New(rand.NewSource(42))
	for gi, g := range grammars {
		for trial := 0; trial < 300; trial++ {
			n := rng.Intn(8)
			s := make([]bool, n)
			for i := range s {
				s[i] = rng.Intn(2) == 1
			}
			want := Denote(g, s)
			got, err := ParseBits(g, s)
			if len(want) == 0 {
				if err == nil {
					t.Fatalf("grammar %d: parser accepted %v but denotation rejects", gi, s)
				}
				continue
			}
			if err != nil {
				t.Fatalf("grammar %d: parser rejected %v but denotation accepts: %v", gi, s, err)
			}
			if len(got) != len(want) {
				t.Fatalf("grammar %d on %v: parser %d values, denotation %d", gi, s, len(got), len(want))
			}
			// Compare as multisets via reflect.DeepEqual on sorted-ish
			// rendering; for these grammars single values are typical.
			if len(got) == 1 && !reflect.DeepEqual(got[0], want[0]) {
				t.Fatalf("grammar %d on %v: value %#v vs %#v", gi, s, got[0], want[0])
			}
		}
	}
}

// TestSampleInDenotation checks the generative reading: every sample the
// sampler draws really is in the grammar's denotation with the same value.
func TestSampleInDenotation(t *testing.T) {
	grammars := []*Grammar{
		Bits("1010"),
		Alt(Bits("10"), Bits("01")),
		Cat(Field(3), Bits("1")),
		Option(Bits("110")),
		Then(Bits("1110"), Field(4)),
	}
	s := NewSampler(rand.New(rand.NewSource(1)))
	for gi, g := range grammars {
		for trial := 0; trial < 200; trial++ {
			bits, v, ok := s.Sample(g)
			if !ok {
				t.Fatalf("grammar %d: sampler says empty language", gi)
			}
			vs := Denote(g, bits)
			found := false
			for _, w := range vs {
				if reflect.DeepEqual(v, w) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("grammar %d: sampled (%v, %#v) not in denotation %v", gi, bits, v, vs)
			}
		}
	}
}

func TestSamplerVoid(t *testing.T) {
	s := NewSampler(rand.New(rand.NewSource(1)))
	if _, _, ok := s.Sample(Void()); ok {
		t.Fatal("Void must not be sampleable")
	}
	if _, _, ok := s.Sample(Cat(Void(), Bits("1"))); ok {
		t.Fatal("Cat with Void must not be sampleable")
	}
	if _, _, ok := s.Sample(Alt(Void(), Bits("1"))); !ok {
		t.Fatal("Alt with one live branch must be sampleable")
	}
}

func TestParseBytesShortestMatch(t *testing.T) {
	// 0xE8 followed by a 32-bit immediate.
	g := Then(LitByte(0xe8), Word())
	input := []byte{0xe8, 0x04, 0x03, 0x02, 0x01, 0x99, 0x99}
	v, n, err := ParseBytes(g, input, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("consumed %d bytes, want 5", n)
	}
	if v.(uint64) != 0x01020304 {
		t.Fatalf("value %#x, want 0x01020304", v)
	}
}

func TestParseBytesRejects(t *testing.T) {
	g := LitByte(0xe8)
	if _, _, err := ParseBytes(g, []byte{0xe9}, 0); err == nil {
		t.Fatal("wrong byte must fail")
	}
	if _, _, err := ParseBytes(g, nil, 0); err == nil {
		t.Fatal("empty input must fail")
	}
}

func TestBytesBitsRoundTrip(t *testing.T) {
	in := []byte{0x00, 0xff, 0xa5, 0x12}
	if got := BitsToBytes(BytesToBits(in)); !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip = %v", got)
	}
}

func TestSmartConstructors(t *testing.T) {
	if !Cat(Void(), Bits("1")).IsVoid() || !Cat(Bits("1"), Void()).IsVoid() {
		t.Fatal("Cat must annihilate on Void")
	}
	if !Alt(Void(), Void()).IsVoid() {
		t.Fatal("Alt of Voids is Void")
	}
	if Alt(Void(), Char(true)).op != opChar {
		t.Fatal("Alt must drop Void branches")
	}
	if Star(Star(Char(true))) != Star(Char(true)) && Star(Star(Char(true))).op != opStar {
		t.Fatal("Star collapses")
	}
	if Map(Void(), func(v Value) Value { return v }).op != opVoid {
		t.Fatal("Map over Void is Void")
	}
	if Named("x", Void()) != Void() {
		t.Fatal("Named over Void is Void")
	}
}

func TestNamedString(t *testing.T) {
	g := Named("word", Word())
	if got := g.String(); got != "word" {
		t.Fatalf("Named string = %q", got)
	}
	if Bits("10").String() == "" {
		t.Fatal("String must render")
	}
}
