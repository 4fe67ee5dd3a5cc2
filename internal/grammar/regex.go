package grammar

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
)

// This file implements the action-stripped regular expressions the paper
// compiles to DFAs (§3.2). Stripping the semantic actions makes equality
// decidable, which unlocks the Alt g g → g reduction; we go further and
// maintain a full ACI normal form (flattened, sorted, deduplicated Alt;
// flattened Cat; Void/Eps laws) with hash-consing, so that Brzozowski's
// finiteness theorem yields small state sets in practice (the paper's
// largest checker DFA has 61 states).

// Regex is an interned, ACI-normalized regular expression over bits.
// Regexes are created through a Ctx and compared by pointer.
type Regex struct {
	id       int
	op       rop
	bit      bool     // for rChar
	kids     []*Regex // for rCat (ordered) and rAlt (sorted by id)
	nullable bool
	derivs   [2]*Regex // memoized bit derivatives
}

type rop uint8

const (
	rVoid rop = iota
	rEps
	rChar
	rAny
	rCat
	rAlt
	rStar
)

// Ctx interns regexes; all construction goes through it. A Ctx is not safe
// for concurrent use; build DFAs up front (package init or cmd/dfagen).
type Ctx struct {
	table map[string]*Regex
	next  int

	// Scratch reused by every constructor call: almost every call is a
	// table hit, so a node and its kid slice are allocated only on a
	// miss. No interned node points into kids.
	key  []byte
	kids []*Regex

	stripped map[*Grammar]*Regex // Strip's memo

	Void *Regex
	Eps  *Regex
	R0   *Regex // Char 0
	R1   *Regex // Char 1
	Dot  *Regex // Any
}

// NewCtx creates an interning context with the shared leaves pre-made.
func NewCtx() *Ctx {
	c := &Ctx{table: make(map[string]*Regex), stripped: make(map[*Grammar]*Regex)}
	c.Void = c.intern(rVoid, false, nil, false)
	c.Eps = c.intern(rEps, false, nil, true)
	c.R0 = c.intern(rChar, false, nil, false)
	c.R1 = c.intern(rChar, true, nil, false)
	c.Dot = c.intern(rAny, false, nil, false)
	return c
}

// intern returns the unique node for (op, bit, kids), creating it on a
// miss. The key is the op digit, the bit for a Char, then ",id" per kid:
// an injective encoding built in the reused key buffer, and looked up
// without converting it to a string.
func (c *Ctx) intern(op rop, bit bool, kids []*Regex, nullable bool) *Regex {
	key := append(c.key[:0], byte('0'+op))
	if op == rChar {
		if bit {
			key = append(key, '1')
		} else {
			key = append(key, '0')
		}
	}
	for _, k := range kids {
		key = append(key, ',')
		key = strconv.AppendInt(key, int64(k.id), 10)
	}
	c.key = key
	if got, ok := c.table[string(key)]; ok {
		return got
	}
	r := &Regex{id: c.next, op: op, bit: bit, kids: slices.Clone(kids), nullable: nullable}
	c.next++
	c.table[string(key)] = r
	return r
}

// Size reports how many distinct regex nodes have been interned.
func (c *Ctx) Size() int { return c.next }

// Char returns the single-bit literal.
func (c *Ctx) Char(b bool) *Regex {
	if b {
		return c.R1
	}
	return c.R0
}

// Cat builds normalized concatenation: flattens nested Cats, drops Eps,
// and annihilates on Void.
func (c *Ctx) Cat(rs ...*Regex) *Regex { return c.cat(c.Eps, rs) }

// cat is Cat(head, tail...) without building that argument list.
func (c *Ctx) cat(head *Regex, tail []*Regex) *Regex {
	kids := c.kids[:0]
	for i := -1; i < len(tail); i++ {
		r := head // i == -1
		if i >= 0 {
			r = tail[i]
		}
		switch r.op {
		case rVoid:
			return c.Void
		case rEps:
		case rCat:
			kids = append(kids, r.kids...)
		default:
			kids = append(kids, r)
		}
	}
	c.kids = kids
	switch len(kids) {
	case 0:
		return c.Eps
	case 1:
		return kids[0]
	}
	nullable := true
	for _, k := range kids {
		nullable = nullable && k.nullable
	}
	return c.intern(rCat, false, kids, nullable)
}

// Alt builds normalized alternation: flattens, removes Void, sorts by id
// and deduplicates (the ACI laws, including the paper's Alt g g → g).
// An interned Alt's kids are already flat and free of Void, so one level
// of flattening suffices.
func (c *Ctx) Alt(rs ...*Regex) *Regex {
	kids := c.kids[:0]
	for _, r := range rs {
		switch r.op {
		case rVoid:
		case rAlt:
			kids = append(kids, r.kids...)
		default:
			kids = append(kids, r)
		}
	}
	slices.SortFunc(kids, func(a, b *Regex) int { return cmp.Compare(a.id, b.id) })
	kids = slices.Compact(kids)
	c.kids = kids
	switch len(kids) {
	case 0:
		return c.Void
	case 1:
		return kids[0]
	}
	nullable := false
	for _, k := range kids {
		nullable = nullable || k.nullable
	}
	return c.intern(rAlt, false, kids, nullable)
}

// Star builds normalized iteration: Star Star g → Star g; Star of
// Void/Eps → Eps.
func (c *Ctx) Star(r *Regex) *Regex {
	switch r.op {
	case rStar:
		return r
	case rVoid, rEps:
		return c.Eps
	}
	c.kids = append(c.kids[:0], r)
	return c.intern(rStar, false, c.kids, true)
}

// Nullable reports whether the regex accepts the empty string.
func (r *Regex) Nullable() bool { return r.nullable }

// IsVoid reports whether the regex is the canonical empty language.
func (r *Regex) IsVoid() bool { return r.op == rVoid }

// ID returns the regex's interning identity (stable within its Ctx).
func (r *Regex) ID() int { return r.id }

// Deriv computes the memoized Brzozowski derivative with respect to a bit.
func (c *Ctx) Deriv(r *Regex, b bool) *Regex {
	idx := 0
	if b {
		idx = 1
	}
	if d := r.derivs[idx]; d != nil {
		return d
	}
	var d *Regex
	switch r.op {
	case rVoid, rEps:
		d = c.Void
	case rChar:
		if r.bit == b {
			d = c.Eps
		} else {
			d = c.Void
		}
	case rAny:
		d = c.Eps
	case rCat:
		// d(r1 r2 … rn) = d(r1) r2…rn | [r1 nullable] d(r2 r3…rn)
		d = c.cat(c.Deriv(r.kids[0], b), r.kids[1:])
		if r.kids[0].nullable {
			d = c.Alt(d, c.Deriv(c.Cat(r.kids[1:]...), b))
		}
	case rAlt:
		parts := make([]*Regex, len(r.kids))
		for i, k := range r.kids {
			parts[i] = c.Deriv(k, b)
		}
		d = c.Alt(parts...)
	case rStar:
		d = c.Cat(c.Deriv(r.kids[0], b), r)
	}
	r.derivs[idx] = d
	return d
}

// DerivByte applies eight bit derivatives, MSB first.
func (c *Ctx) DerivByte(r *Regex, by byte) *Regex {
	for i := 7; i >= 0; i-- {
		r = c.Deriv(r, by>>uint(i)&1 == 1)
		if r.op == rVoid {
			return r
		}
	}
	return r
}

// Strip converts a grammar into its action-stripped regex, the first step
// of DFA compilation in §3.2. Results are memoized per grammar node, so a
// subgrammar shared by many instruction forms is stripped once per Ctx.
func (c *Ctx) Strip(g *Grammar) *Regex {
	if r, ok := c.stripped[g]; ok {
		return r
	}
	var r *Regex
	switch g.op {
	case opVoid:
		r = c.Void
	case opEps:
		r = c.Eps
	case opChar:
		r = c.Char(g.bit)
	case opAny:
		r = c.Dot
	case opCat:
		r = c.Cat(c.Strip(g.l), c.Strip(g.r))
	case opAlt:
		r = c.Alt(c.Strip(g.l), c.Strip(g.r))
	case opStar:
		r = c.Star(c.Strip(g.l))
	case opMap:
		r = c.Strip(g.l)
	default:
		panic("grammar: unknown op in Strip")
	}
	c.stripped[g] = r
	return r
}

// String renders the regex.
func (r *Regex) String() string {
	var sb strings.Builder
	r.render(&sb)
	return sb.String()
}

func (r *Regex) render(sb *strings.Builder) {
	switch r.op {
	case rVoid:
		sb.WriteString("∅")
	case rEps:
		sb.WriteString("ε")
	case rChar:
		if r.bit {
			sb.WriteString("1")
		} else {
			sb.WriteString("0")
		}
	case rAny:
		sb.WriteString(".")
	case rCat:
		for _, k := range r.kids {
			if k.op == rAlt {
				sb.WriteString("(")
				k.render(sb)
				sb.WriteString(")")
			} else {
				k.render(sb)
			}
		}
	case rAlt:
		sb.WriteString("(")
		for i, k := range r.kids {
			if i > 0 {
				sb.WriteString("|")
			}
			k.render(sb)
		}
		sb.WriteString(")")
	case rStar:
		if len(r.kids[0].kids) > 0 {
			sb.WriteString("(")
			r.kids[0].render(sb)
			sb.WriteString(")*")
		} else {
			r.kids[0].render(sb)
			sb.WriteString("*")
		}
	}
}
