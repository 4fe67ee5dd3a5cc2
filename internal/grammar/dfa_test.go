package grammar

import (
	"math/rand"
	"testing"
)

func TestStripAndNormalize(t *testing.T) {
	c := NewCtx()
	r1 := c.Strip(Alt(Bits("10"), Bits("10")))
	r2 := c.Strip(Bits("10"))
	if r1 != r2 {
		t.Fatal("Alt g g must normalize to g after stripping")
	}
	// Alt is commutative after normalization.
	a := c.Alt(c.Strip(Bits("10")), c.Strip(Bits("01")))
	b := c.Alt(c.Strip(Bits("01")), c.Strip(Bits("10")))
	if a != b {
		t.Fatal("Alt must be commutative under interning")
	}
	if c.Cat(c.Eps, c.R1) != c.R1 {
		t.Fatal("Cat with Eps must reduce")
	}
	if c.Cat(c.Void, c.R1) != c.Void {
		t.Fatal("Cat with Void must annihilate")
	}
	if c.Star(c.Star(c.R1)) != c.Star(c.R1) {
		t.Fatal("Star Star reduces")
	}
	if c.Star(c.Eps) != c.Eps || c.Star(c.Void) != c.Eps {
		t.Fatal("Star of Eps/Void is Eps")
	}
}

// TestInternHitAllocatesNothing: re-interning a node that already
// exists builds its key in the Ctx's buffer and its kids in the Ctx's
// scratch, so it allocates nothing. Nodes interned earlier must own
// their kids: later calls reuse that scratch.
func TestInternHitAllocatesNothing(t *testing.T) {
	c := NewCtx()
	cat := c.Cat(c.R0, c.R1, c.Dot)
	alt := c.Alt(c.Dot, c.R1, cat)
	star := c.Star(alt)
	want := star.String()
	for name, f := range map[string]func() *Regex{
		"cat":  func() *Regex { return c.Cat(c.R0, c.Cat(c.R1, c.Dot)) },
		"alt":  func() *Regex { return c.Alt(c.R1, c.Alt(cat, c.Dot), c.Void) },
		"star": func() *Regex { return c.Star(alt) },
	} {
		var got *Regex
		if n := testing.AllocsPerRun(100, func() { got = f() }); n != 0 {
			t.Errorf("re-interning an existing %s: %v allocs, want 0", name, n)
		}
		if got != cat && got != alt && got != star {
			t.Errorf("re-interning an existing %s built a new node %v", name, got)
		}
	}
	c.Cat(c.Dot, c.Dot, c.Dot, c.Dot)
	c.Alt(c.R0, c.Star(c.R0), c.Eps)
	if got := star.String(); got != want {
		t.Fatalf("interned nodes changed under later calls: %s, was %s", got, want)
	}
}

func TestRegexDeriv(t *testing.T) {
	c := NewCtx()
	r := c.Strip(Bits("10"))
	d1 := c.Deriv(r, true)
	if d1 == c.Void {
		t.Fatal("deriv by 1 live")
	}
	if c.Deriv(r, false) != c.Void {
		t.Fatal("deriv by 0 dead")
	}
	d2 := c.Deriv(d1, false)
	if d2 != c.Eps {
		t.Fatalf("full match must reach Eps, got %v", d2)
	}
	// Memoization returns identical pointers.
	if c.Deriv(r, true) != d1 {
		t.Fatal("derivative must be memoized")
	}
}

// TestDFAAgainstDenotation is the executable Theorem 2: the generated DFA
// accepts exactly the prefix-closed reading of the regex's language.
func TestDFAAgainstDenotation(t *testing.T) {
	grammars := []*Grammar{
		Bits("10101010"),
		Alt(LitByte(0x90), LitByte(0xcc)),
		Then(LitByte(0xe8), AnyByte()),
		Cat(AnyByte(), LitByte(0x00)),
		Alt(LitByte(0x01), Then(LitByte(0x0f), LitByte(0xaf))),
	}
	c := NewCtx()
	rng := rand.New(rand.NewSource(3))
	for gi, g := range grammars {
		r := c.Strip(g)
		dfa, err := c.CompileDFA(r, 0)
		if err != nil {
			t.Fatalf("grammar %d: %v", gi, err)
		}
		for trial := 0; trial < 500; trial++ {
			n := rng.Intn(4)
			bs := make([]byte, n)
			rng.Read(bs)
			// Walk the DFA.
			st := dfa.Start
			for _, b := range bs {
				st = int(dfa.Table[st][b])
			}
			got := dfa.Accepts[st]
			want := InDenotation(g, BytesToBits(bs))
			if got != want {
				t.Fatalf("grammar %d on % x: dfa=%v denotation=%v", gi, bs, got, want)
			}
			if dfa.Rejects[st] {
				// A rejecting state must have an empty residual language:
				// no extension may be accepted.
				if want {
					t.Fatalf("grammar %d: rejecting state accepts", gi)
				}
			}
		}
	}
}

func TestDFARejectStateIsSink(t *testing.T) {
	c := NewCtx()
	dfa, err := c.CompileDFA(c.Strip(LitByte(0x90)), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dfa.Table {
		if !dfa.Rejects[i] {
			continue
		}
		for b := 0; b < 256; b++ {
			if !dfa.Rejects[dfa.Table[i][b]] {
				t.Fatal("rejecting states must be closed under transitions")
			}
		}
	}
}

func TestBitDFAPrefixFree(t *testing.T) {
	c := NewCtx()
	pf := c.Strip(Alt(LitByte(0x90), LitByte(0xcc)))
	d, err := c.CompileBitDFA(pf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.PrefixFree() {
		t.Fatal("two distinct single bytes are prefix-free")
	}
	notPf := c.Strip(Alt(LitByte(0x90), Then(LitByte(0x90), LitByte(0x01))))
	d2, err := c.CompileBitDFA(notPf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2.PrefixFree() {
		t.Fatal("0x90 is a prefix of 0x90 0x01")
	}
}

func TestIntersects(t *testing.T) {
	c := NewCtx()
	a := c.Strip(LitByte(0x90))
	b := c.Strip(LitByte(0xcc))
	if c.Intersects(a, b) {
		t.Fatal("distinct literals must not intersect")
	}
	if !c.Intersects(a, a) {
		t.Fatal("language intersects itself")
	}
	anyB := c.Strip(AnyByte())
	if !c.Intersects(a, anyB) {
		t.Fatal("literal intersects wildcard")
	}
	// ε-option vs literal: {ε} ∩ {0x66} = ∅.
	opt := c.Strip(Option(LitByte(0x66)))
	eps := c.Eps
	if c.Intersects(eps, c.Strip(LitByte(0x66))) {
		t.Fatal("ε does not intersect a byte literal")
	}
	if !c.Intersects(opt, eps) {
		t.Fatal("option includes ε")
	}
}

func TestDerivBy(t *testing.T) {
	c := NewCtx()
	// g = "10 11", by = "10": residual must be "11".
	g := c.Strip(Bits("1011"))
	by := c.Strip(Bits("10"))
	d, err := c.DerivBy(g, by)
	if err != nil {
		t.Fatal(err)
	}
	want := c.Strip(Bits("11"))
	if d != want {
		t.Fatalf("DerivBy = %v, want %v", d, want)
	}
	// by not a prefix: residual Void.
	d2, err := c.DerivBy(g, c.Strip(Bits("01")))
	if err != nil {
		t.Fatal(err)
	}
	if !d2.IsVoid() {
		t.Fatalf("DerivBy with non-prefix = %v, want Void", d2)
	}
	// Star in `by` is rejected.
	if _, err := c.DerivBy(g, c.Star(c.R1)); err == nil {
		t.Fatal("DerivBy must reject Star")
	}
	// Any in `by` is the exact union over bits.
	d3, err := c.DerivBy(c.Strip(Bits("10")), c.Dot)
	if err != nil {
		t.Fatal(err)
	}
	if d3 != c.R0 {
		t.Fatalf("DerivBy by Any = %v, want 0", d3)
	}
}

func TestDerivByCharacterization(t *testing.T) {
	// Property: s2 ∈ DerivBy(g, by) iff ∃s1 ∈ by with s1·s2 ∈ g —
	// checked by sampling over small languages.
	c := NewCtx()
	g := Alt(Bits("1011"), Bits("0111"), Bits("10"))
	by := Alt(Bits("10"), Bits("01"))
	dg, err := c.DerivBy(c.Strip(g), c.Strip(by))
	if err != nil {
		t.Fatal(err)
	}
	dfa, err := c.CompileBitDFA(dg, 0)
	if err != nil {
		t.Fatal(err)
	}
	inD := func(s []bool) bool {
		st := dfa.Start
		for _, b := range s {
			i := 0
			if b {
				i = 1
			}
			st = dfa.Next[st][i]
		}
		return dfa.Accepts[st]
	}
	// Enumerate all bit strings up to length 4 and compare.
	for n := 0; n <= 4; n++ {
		for mask := 0; mask < 1<<n; mask++ {
			s2 := make([]bool, n)
			for i := 0; i < n; i++ {
				s2[i] = mask>>i&1 == 1
			}
			want := false
			for m := 0; m <= 4 && !want; m++ {
				for pm := 0; pm < 1<<m && !want; pm++ {
					s1 := make([]bool, m)
					for i := 0; i < m; i++ {
						s1[i] = pm>>i&1 == 1
					}
					if InDenotation(by, s1) && InDenotation(g, append(append([]bool{}, s1...), s2...)) {
						want = true
					}
				}
			}
			if got := inD(s2); got != want {
				t.Fatalf("DerivBy characterization fails on %v: got %v want %v", s2, got, want)
			}
		}
	}
}

func TestPrefixDisjoint(t *testing.T) {
	c := NewCtx()
	a := c.Strip(LitByte(0x90))
	b := c.Strip(LitByte(0xcc))
	ok, err := c.PrefixDisjoint(a, b)
	if err != nil || !ok {
		t.Fatalf("distinct bytes must be prefix-disjoint: %v %v", ok, err)
	}
	pre := c.Strip(Then(LitByte(0x90), LitByte(0x01)))
	ok, err = c.PrefixDisjoint(pre, a)
	if err != nil || ok {
		t.Fatalf("0x90 is a prefix of 0x90 0x01: %v %v", ok, err)
	}
}

func TestCheckUnambiguous(t *testing.T) {
	c := NewCtx()
	good := Alt(LitByte(0x01), LitByte(0x02), Then(LitByte(0x0f), AnyByte()))
	if err := CheckUnambiguous(c, good); err != nil {
		t.Fatalf("disjoint alternatives flagged: %v", err)
	}
	// The paper's flipped-MOV-bit scenario: two alternatives overlap.
	bad := Alt(LitByte(0x88), Alt(LitByte(0x88), LitByte(0x89)))
	if err := CheckUnambiguous(c, bad); err == nil {
		t.Fatal("overlapping alternatives must be detected")
	}
	// Overlap via wildcard.
	bad2 := Alt(AnyByte(), LitByte(0x90))
	if err := CheckUnambiguous(c, bad2); err == nil {
		t.Fatal("wildcard overlap must be detected")
	}
}

func TestDFAStateCountSmall(t *testing.T) {
	// The normalization must keep policy-sized DFAs tiny (paper: 61 states
	// for the largest of the three checker DFAs).
	c := NewCtx()
	g := Alt(
		Then(LitByte(0x83), Then(LitByte(0xe0), LitByte(0xe0))),
		Then(LitByte(0xff), LitByte(0xe0)),
	)
	dfa, err := c.CompileDFA(c.Strip(g), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := dfa.NumStates(); n > 10 {
		t.Fatalf("tiny grammar exploded to %d states", n)
	}
}

func TestCompileDFAStateBound(t *testing.T) {
	c := NewCtx()
	if _, err := c.CompileDFA(c.Strip(Word()), 2); err == nil {
		t.Fatal("state bound must be enforced")
	}
}
