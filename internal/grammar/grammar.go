// Package grammar implements the paper's Decoder DSL: grammars over bits
// with semantic actions, a denotational reference semantics, Brzozowski
// derivatives with smart constructors, a derivative-based parser, DFA
// compilation for action-stripped grammars, and the generalized derivative
// used to decide unambiguity of star-free grammars.
//
// A Grammar denotes a relation between bit strings and semantic values,
// exactly as in §2.1 of the paper:
//
//	[[Char c]]    = {([c], c)}
//	[[Any]]       = ∪_c {([c], c)}
//	[[Eps]]       = {([], tt)}
//	[[Void]]      = ∅
//	[[Alt g1 g2]] = [[g1]] ∪ [[g2]]
//	[[Cat g1 g2]] = {(s1s2, (v1,v2)) | (si,vi) ∈ [[gi]]}
//	[[Map f g]]   = {(s, f v) | (s,v) ∈ [[g]]}
//	[[Star g]]    = lists of g-matches
//
// The paper's characters are bits: patterns are written at the bit level so
// that semantic actions never need shifts or masks. Bits within a byte are
// fed most-significant first, matching the Intel manual's table layout.
package grammar

import (
	"fmt"
	"strings"
)

// Value is a semantic value computed by a grammar. The Coq development uses
// type-indexed grammars; in Go the index is erased and actions are dynamic.
type Value = any

// Unit is the value of Eps, Coq's tt.
type Unit struct{}

// Pair is the value of Cat.
type Pair struct {
	Fst, Snd Value
}

// Grammar is the abstract syntax of the DSL, mirroring the paper's
// inductive type. Values of this type are immutable once built.
type Grammar struct {
	op       op
	bit      bool              // for opChar
	l, r     *Grammar          // children (r nil for unary)
	f        func(Value) Value // for opMap
	name     string            // optional label for opMap, used in String
	nullable bool              // accepts the empty string (cached)
}

type op uint8

const (
	opVoid op = iota
	opEps
	opChar
	opAny
	opCat
	opAlt
	opStar
	opMap
)

// Shared leaves: grammars are immutable, so these singletons are safe.
var (
	voidG = &Grammar{op: opVoid}
	epsG  = &Grammar{op: opEps, nullable: true}
	char0 = &Grammar{op: opChar, bit: false}
	char1 = &Grammar{op: opChar, bit: true}
	anyG  = &Grammar{op: opAny}
)

// Void is the grammar matching nothing.
func Void() *Grammar { return voidG }

// Eps matches the empty string and yields Unit.
func Eps() *Grammar { return epsG }

// Char matches exactly one bit and yields it as a bool.
func Char(b bool) *Grammar {
	if b {
		return char1
	}
	return char0
}

// Any matches any single bit and yields it as a bool.
func Any() *Grammar { return anyG }

// Cat is sequential composition; it yields Pair{v1, v2}. This constructor
// is "smart": Void annihilates, and Eps on either side is fused into a Map
// so that derivatives stay small (the paper's local reductions).
func Cat(g1, g2 *Grammar) *Grammar {
	switch {
	case g1.op == opVoid || g2.op == opVoid:
		return voidG
	case g1.op == opEps:
		return Map(g2, func(v Value) Value { return Pair{Unit{}, v} })
	case g2.op == opEps:
		return Map(g1, func(v Value) Value { return Pair{v, Unit{}} })
	}
	return &Grammar{op: opCat, l: g1, r: g2, nullable: g1.nullable && g2.nullable}
}

// Alt is alternation. Void children are eliminated (a smart constructor);
// the Alt g g → g reduction needs decidable equality and is performed only
// on action-stripped regexes (see regex.go), as in the paper.
func Alt(gs ...*Grammar) *Grammar {
	var acc *Grammar
	for _, g := range gs {
		if g.op == opVoid {
			continue
		}
		if acc == nil {
			acc = g
		} else {
			acc = &Grammar{op: opAlt, l: acc, r: g, nullable: acc.nullable || g.nullable}
		}
	}
	if acc == nil {
		return voidG
	}
	return acc
}

// Star matches zero or more occurrences, yielding a []Value.
func Star(g *Grammar) *Grammar {
	switch g.op {
	case opStar:
		return g
	case opVoid, opEps:
		return Map(epsG, func(Value) Value { return []Value(nil) })
	}
	return &Grammar{op: opStar, l: g, nullable: true}
}

// Map applies a semantic action, the paper's g @ f. Nested maps are fused
// so derivative towers stay shallow.
func Map(g *Grammar, f func(Value) Value) *Grammar {
	if g.op == opVoid {
		return voidG
	}
	if g.op == opMap {
		inner := g.f
		base := g.l
		return &Grammar{op: opMap, l: base, f: func(v Value) Value { return f(inner(v)) }, nullable: base.nullable}
	}
	return &Grammar{op: opMap, l: g, f: f, nullable: g.nullable}
}

// Named attaches a diagnostic label to a grammar (visible in String).
// Like every constructor it builds no node over Void, so a grammar is
// empty exactly when it is Void.
func Named(name string, g *Grammar) *Grammar {
	if g.op == opVoid {
		return voidG
	}
	return &Grammar{op: opMap, l: g, f: func(v Value) Value { return v }, name: name, nullable: g.nullable}
}

// Then is the paper's g1 $$ g2: sequence, keeping only g2's value.
func Then(g1, g2 *Grammar) *Grammar {
	return Map(Cat(g1, g2), func(v Value) Value { return v.(Pair).Snd })
}

// ThenFst sequences two grammars, keeping only g1's value.
func ThenFst(g1, g2 *Grammar) *Grammar {
	return Map(Cat(g1, g2), func(v Value) Value { return v.(Pair).Fst })
}

// Bits matches the literal bit pattern written as a string of '0' and '1'
// (most significant bit first, as in the Intel manual tables and the
// paper's "1110" $$ "1000" notation). It yields Unit. Spaces and
// underscores may be used as visual separators.
func Bits(pattern string) *Grammar {
	g := epsG
	first := true
	for _, c := range pattern {
		var bit *Grammar
		switch c {
		case '0':
			bit = char0
		case '1':
			bit = char1
		case ' ', '_':
			continue
		default:
			panic(fmt.Sprintf("grammar: bad bit pattern %q", pattern))
		}
		if first {
			g = bit
			first = false
		} else {
			g = Then(g, bit)
		}
	}
	return Map(g, func(Value) Value { return Unit{} })
}

// Field matches n arbitrary bits (MSB first) and yields them as a uint64.
// It is used for register fields, mod/rm bits, scale fields, etc.
func Field(n int) *Grammar {
	if n < 1 || n > 64 {
		panic("grammar: Field width out of range")
	}
	g := anyG
	for i := 1; i < n; i++ {
		g = Cat(g, anyG)
	}
	// The value tree is left-nested pairs of bools; fold it to an integer.
	return Map(g, func(v Value) Value {
		var fold func(Value) (uint64, int)
		fold = func(v Value) (uint64, int) {
			switch x := v.(type) {
			case bool:
				if x {
					return 1, 1
				}
				return 0, 1
			case Pair:
				hi, nh := fold(x.Fst)
				lo, nl := fold(x.Snd)
				return hi<<uint(nl) | lo, nh + nl
			default:
				panic("grammar: Field folding non-bit value")
			}
		}
		r, _ := fold(v)
		return r
	})
}

// BitsValue matches the literal n-bit pattern for value v (MSB first),
// yielding Unit. It is the paper's bitslist(int_to_bools …) helper.
func BitsValue(n int, v uint64) *Grammar {
	var sb strings.Builder
	for i := n - 1; i >= 0; i-- {
		if v>>uint(i)&1 == 1 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return Bits(sb.String())
}

// AnyByte matches 8 arbitrary bits, yielding the byte value (uint64).
func AnyByte() *Grammar { return Field(8) }

// LitByte matches one literal byte (bits MSB first), yielding Unit.
func LitByte(b byte) *Grammar { return BitsValue(8, uint64(b)) }

// UnsignedLE matches n little-endian bytes and yields the unsigned integer
// they encode as a uint64. Within each byte, bits are MSB first; across
// bytes, the least significant byte comes first, which is how x86 encodes
// immediates and displacements.
func UnsignedLE(nbytes int) *Grammar {
	if nbytes < 1 || nbytes > 8 {
		panic("grammar: UnsignedLE size out of range")
	}
	g := AnyByte()
	for i := 1; i < nbytes; i++ {
		g = Cat(g, AnyByte())
	}
	return Map(g, func(v Value) Value {
		// Left-nested pairs: ((b0, b1), b2)... b0 is the first (lowest) byte.
		bytes := make([]uint64, 0, nbytes)
		var walk func(Value)
		walk = func(v Value) {
			switch x := v.(type) {
			case Pair:
				walk(x.Fst)
				walk(x.Snd)
			case uint64:
				bytes = append(bytes, x)
			default:
				panic("grammar: UnsignedLE folding non-byte")
			}
		}
		walk(v)
		var r uint64
		for i := len(bytes) - 1; i >= 0; i-- {
			r = r<<8 | bytes[i]
		}
		return r
	})
}

// Word matches a 32-bit little-endian immediate, the paper's `word`.
func Word() *Grammar { return UnsignedLE(4) }

// Halfword matches a 16-bit little-endian immediate, the paper's `halfword`.
func Halfword() *Grammar { return UnsignedLE(2) }

// Option matches either g or the empty string; the value is g's value or
// nil for the empty case.
func Option(g *Grammar) *Grammar {
	return Alt(
		Map(g, func(v Value) Value { return v }),
		Map(epsG, func(Value) Value { return nil }),
	)
}

// String renders the grammar's shape (actions are opaque).
func (g *Grammar) String() string {
	var sb strings.Builder
	g.render(&sb, 0)
	return sb.String()
}

func (g *Grammar) render(sb *strings.Builder, depth int) {
	if depth > 12 {
		sb.WriteString("…")
		return
	}
	switch g.op {
	case opVoid:
		sb.WriteString("∅")
	case opEps:
		sb.WriteString("ε")
	case opChar:
		if g.bit {
			sb.WriteString("1")
		} else {
			sb.WriteString("0")
		}
	case opAny:
		sb.WriteString(".")
	case opCat:
		sb.WriteString("(")
		g.l.render(sb, depth+1)
		sb.WriteString(" · ")
		g.r.render(sb, depth+1)
		sb.WriteString(")")
	case opAlt:
		sb.WriteString("(")
		g.l.render(sb, depth+1)
		sb.WriteString(" | ")
		g.r.render(sb, depth+1)
		sb.WriteString(")")
	case opStar:
		g.l.render(sb, depth+1)
		sb.WriteString("*")
	case opMap:
		if g.name != "" {
			sb.WriteString(g.name)
			return
		}
		g.l.render(sb, depth+1)
		sb.WriteString("@f")
	}
}

// minLen returns the length of the shortest string in [[g]], or -1 when
// the language is empty. maxLen returns the longest, with -2 meaning
// unbounded (Star) and -1 empty. These bounds prune the Cat splits in
// Denote, keeping the oracle usable on byte-sized inputs.
func minLen(g *Grammar) int {
	switch g.op {
	case opVoid:
		return -1
	case opEps, opStar:
		return 0
	case opChar, opAny:
		return 1
	case opCat:
		a, b := minLen(g.l), minLen(g.r)
		if a < 0 || b < 0 {
			return -1
		}
		return a + b
	case opAlt:
		a, b := minLen(g.l), minLen(g.r)
		switch {
		case a < 0:
			return b
		case b < 0:
			return a
		case a < b:
			return a
		default:
			return b
		}
	case opMap:
		return minLen(g.l)
	default:
		return -1
	}
}

func maxLen(g *Grammar) int {
	switch g.op {
	case opVoid:
		return -1
	case opEps:
		return 0
	case opChar, opAny:
		return 1
	case opStar:
		if m := maxLen(g.l); m == 0 || m == -1 {
			return 0
		}
		return -2
	case opCat:
		a, b := maxLen(g.l), maxLen(g.r)
		if a == -1 || b == -1 {
			return -1
		}
		if a == -2 || b == -2 {
			return -2
		}
		return a + b
	case opAlt:
		a, b := maxLen(g.l), maxLen(g.r)
		switch {
		case a == -1:
			return b
		case b == -1:
			return a
		case a == -2 || b == -2:
			return -2
		case a > b:
			return a
		default:
			return b
		}
	case opMap:
		return maxLen(g.l)
	default:
		return -1
	}
}

func lenCompatible(g *Grammar, n int) bool {
	mn := minLen(g)
	if mn < 0 || n < mn {
		return false
	}
	mx := maxLen(g)
	return mx == -2 || n <= mx
}

// Denote computes the denotational semantics restricted to one input
// string: the (finite) set of values v with (s, v) ∈ [[g]]. It is the
// executable form of the paper's inductively defined predicate, used as
// the specification oracle in property tests. It is exponential in the
// worst case and intended only for short strings.
func Denote(g *Grammar, s []bool) []Value {
	if !lenCompatible(g, len(s)) {
		return nil
	}
	switch g.op {
	case opVoid:
		return nil
	case opEps:
		if len(s) == 0 {
			return []Value{Unit{}}
		}
		return nil
	case opChar:
		if len(s) == 1 && s[0] == g.bit {
			return []Value{g.bit}
		}
		return nil
	case opAny:
		if len(s) == 1 {
			return []Value{s[0]}
		}
		return nil
	case opAlt:
		return append(Denote(g.l, s), Denote(g.r, s)...)
	case opCat:
		var out []Value
		for i := 0; i <= len(s); i++ {
			vs1 := Denote(g.l, s[:i])
			if len(vs1) == 0 {
				continue
			}
			vs2 := Denote(g.r, s[i:])
			for _, v1 := range vs1 {
				for _, v2 := range vs2 {
					out = append(out, Pair{v1, v2})
				}
			}
		}
		return out
	case opMap:
		vs := Denote(g.l, s)
		out := make([]Value, len(vs))
		for i, v := range vs {
			out[i] = g.f(v)
		}
		return out
	case opStar:
		if len(s) == 0 {
			return []Value{[]Value(nil)}
		}
		var out []Value
		// First iteration must consume at least one bit, or recursion
		// would not terminate; [[Star g]] on a non-empty string always
		// has a non-empty first chunk.
		for i := 1; i <= len(s); i++ {
			vs1 := Denote(g.l, s[:i])
			if len(vs1) == 0 {
				continue
			}
			rests := Denote(g, s[i:])
			for _, v1 := range vs1 {
				for _, rest := range rests {
					out = append(out, append([]Value{v1}, rest.([]Value)...))
				}
			}
		}
		return out
	default:
		panic("grammar: unknown op")
	}
}

// InDenotation reports whether s is in the domain of [[g]].
func InDenotation(g *Grammar, s []bool) bool { return len(Denote(g, s)) > 0 }

// BytesToBits expands bytes into bits, most significant bit of each byte
// first — the order in which the decoder consumes input.
func BytesToBits(bs []byte) []bool {
	out := make([]bool, 0, len(bs)*8)
	for _, b := range bs {
		for i := 7; i >= 0; i-- {
			out = append(out, b>>uint(i)&1 == 1)
		}
	}
	return out
}

// BitsToBytes packs bits (MSB first per byte) into bytes; it panics if the
// bit count is not a multiple of 8.
func BitsToBytes(bits []bool) []byte {
	if len(bits)%8 != 0 {
		panic("grammar: bit string not byte aligned")
	}
	out := make([]byte, len(bits)/8)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << uint(7-i%8)
		}
	}
	return out
}
