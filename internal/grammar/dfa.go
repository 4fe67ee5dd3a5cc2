package grammar

import (
	"errors"
	"fmt"
)

// This file implements §3.2: compiling action-stripped regexes to DFAs by
// iterated Brzozowski derivatives. Each reachable derivative becomes a
// state; interning plus the smart constructors' reductions guarantee the
// set of derivatives is finite (Brzozowski 1964). Byte-level tables are
// produced for the checker's match routine (Figure 6), and a bit-level
// automaton is kept for meta-theoretic checks (prefix-freedom) and for the
// ablation comparing bit- vs byte-granularity.

// DFA is a byte-transition automaton in the exact shape consumed by the
// paper's Figure-6 match routine: a start state, accepting and rejecting
// flags, and a dense 256-way transition table.
type DFA struct {
	Start   int
	Accepts []bool
	Rejects []bool // state matches nothing, ever (derivative is Void)
	Table   [][256]uint16
}

// NumStates returns the number of DFA states.
func (d *DFA) NumStates() int { return len(d.Table) }

// ErrTooManyStates is returned when DFA construction exceeds its bound.
var ErrTooManyStates = errors.New("grammar: DFA construction exceeded state bound")

// CompileDFA builds the byte-level DFA for r. Each byte transition is the
// composition of eight bit derivatives (MSB first). maxStates bounds the
// construction; 0 means a generous default.
func (c *Ctx) CompileDFA(r *Regex, maxStates int) (*DFA, error) {
	if maxStates <= 0 {
		maxStates = 1 << 16
	}
	if maxStates > 1<<16 {
		return nil, fmt.Errorf("grammar: maxStates %d exceeds uint16 table entries", maxStates)
	}
	index := map[*Regex]int{r: 0}
	states := []*Regex{r}
	var table [][256]uint16
	for i := 0; i < len(states); i++ {
		var row [256]uint16
		for b := 0; b < 256; b++ {
			d := c.DerivByte(states[i], byte(b))
			j, ok := index[d]
			if !ok {
				j = len(states)
				if j >= maxStates {
					return nil, ErrTooManyStates
				}
				index[d] = j
				states = append(states, d)
			}
			row[b] = uint16(j)
		}
		table = append(table, row)
	}
	accepts := make([]bool, len(states))
	rejects := make([]bool, len(states))
	for i, s := range states {
		accepts[i] = s.nullable
		rejects[i] = s.op == rVoid
	}
	return &DFA{Start: 0, Accepts: accepts, Rejects: rejects, Table: table}, nil
}

// BitDFA is the automaton over single bits, used for state-count ablations
// and the prefix-freedom check.
type BitDFA struct {
	Start   int
	Accepts []bool
	Rejects []bool
	Next    [][2]int
}

// NumStates returns the number of bit-DFA states.
func (d *BitDFA) NumStates() int { return len(d.Next) }

// CompileBitDFA builds the bit-level DFA for r.
func (c *Ctx) CompileBitDFA(r *Regex, maxStates int) (*BitDFA, error) {
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	index := map[*Regex]int{r: 0}
	states := []*Regex{r}
	var next [][2]int
	for i := 0; i < len(states); i++ {
		var row [2]int
		for b := 0; b < 2; b++ {
			d := c.Deriv(states[i], b == 1)
			j, ok := index[d]
			if !ok {
				j = len(states)
				if j >= maxStates {
					return nil, ErrTooManyStates
				}
				index[d] = j
				states = append(states, d)
			}
			row[b] = j
		}
		next = append(next, row)
	}
	accepts := make([]bool, len(states))
	rejects := make([]bool, len(states))
	for i, s := range states {
		accepts[i] = s.nullable
		rejects[i] = s.op == rVoid
	}
	return &BitDFA{Start: 0, Accepts: accepts, Rejects: rejects, Next: next}, nil
}

// PrefixFree reports whether no accepted string is a proper prefix of
// another accepted string: no accepting state reaches an accepting state by
// a non-empty path. This is the executable form of the paper's
// "no instruction's bit pattern is a prefix of another instruction's bit
// pattern" (§4.1).
func (d *BitDFA) PrefixFree() bool {
	// canReachAccept[i]: some path of length >= 0 from i hits an accepting
	// state. Computed by reverse reachability from accepting states.
	rev := make([][]int, len(d.Next))
	for i, row := range d.Next {
		for _, j := range row {
			rev[j] = append(rev[j], i)
		}
	}
	reach := make([]bool, len(d.Next))
	var stack []int
	for i, a := range d.Accepts {
		if a {
			reach[i] = true
			stack = append(stack, i)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range rev[n] {
			if !reach[p] {
				reach[p] = true
				stack = append(stack, p)
			}
		}
	}
	for i, a := range d.Accepts {
		if !a {
			continue
		}
		for _, j := range d.Next[i] {
			if reach[j] {
				return false
			}
		}
	}
	return true
}

// Intersects decides whether L(r1) ∩ L(r2) is non-empty by exploring the
// product of the two derivative automata. This is the emptiness test the
// paper's unambiguity reflection relies on.
func (c *Ctx) Intersects(r1, r2 *Regex) bool {
	type pair struct{ a, b int }
	seen := map[pair]bool{}
	var stack [][2]*Regex
	push := func(a, b *Regex) {
		if a.op == rVoid || b.op == rVoid {
			return
		}
		p := pair{a.id, b.id}
		if !seen[p] {
			seen[p] = true
			stack = append(stack, [2]*Regex{a, b})
		}
	}
	push(r1, r2)
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if top[0].nullable && top[1].nullable {
			return true
		}
		for _, bit := range []bool{false, true} {
			push(c.Deriv(top[0], bit), c.Deriv(top[1], bit))
		}
	}
	return false
}

// ErrNotStarFree is returned by DerivBy when the second grammar contains
// Star; the paper's generalized-derivative procedure "only succeeds on
// star-free grammars".
var ErrNotStarFree = errors.New("grammar: generalized derivative requires a star-free grammar")

// DerivBy computes the paper's generalized derivative (§4.1):
//
//	Deriv g by = {s2 | ∃s1. s1 ∈ [[by]] ∧ s1·s2 ∈ [[g]]}
//
// When the result is Void, no string of g has a prefix (including itself)
// in by. The `by` argument must be star-free.
func (c *Ctx) DerivBy(g, by *Regex) (*Regex, error) {
	switch by.op {
	case rEps:
		return g, nil
	case rVoid:
		return c.Void, nil
	case rChar:
		return c.Deriv(g, by.bit), nil
	case rAny:
		// The alphabet is binary, so DrvAny is the exact union of the two
		// bit derivatives.
		return c.Alt(c.Deriv(g, false), c.Deriv(g, true)), nil
	case rAlt:
		acc := c.Void
		for _, k := range by.kids {
			d, err := c.DerivBy(g, k)
			if err != nil {
				return nil, err
			}
			acc = c.Alt(acc, d)
		}
		return acc, nil
	case rCat:
		cur := g
		for _, k := range by.kids {
			d, err := c.DerivBy(cur, k)
			if err != nil {
				return nil, err
			}
			cur = d
			if cur.op == rVoid {
				return cur, nil
			}
		}
		return cur, nil
	case rStar:
		return nil, ErrNotStarFree
	default:
		panic("grammar: unknown rop in DerivBy")
	}
}

// PrefixDisjoint reports whether g1 and g2 are mutually prefix-disjoint:
// no string of either language is a prefix (proper or not) of a string of
// the other. Both must be star-free.
func (c *Ctx) PrefixDisjoint(g1, g2 *Regex) (bool, error) {
	d12, err := c.DerivBy(g1, g2)
	if err != nil {
		return false, err
	}
	if !d12.IsVoid() {
		return false, nil
	}
	d21, err := c.DerivBy(g2, g1)
	if err != nil {
		return false, err
	}
	return d21.IsVoid(), nil
}

// AmbiguityError reports the first overlapping pair of alternatives found
// by CheckUnambiguous.
type AmbiguityError struct {
	Left, Right *Regex
}

func (e *AmbiguityError) Error() string {
	return fmt.Sprintf("grammar: overlapping alternatives: %s vs %s", e.Left, e.Right)
}

// CheckUnambiguous is the paper's reflection procedure: "We simply
// recursively descend into the grammar, and each time we encounter an Alt,
// check that the intersection of the two sub-grammars is empty." Maximal
// Alt chains are flattened and every pair of alternatives is checked for
// language disjointness. The grammar is first action-stripped into ctx.
func CheckUnambiguous(c *Ctx, g *Grammar) error {
	return checkUnambiguous(c, g, make(map[*Grammar]bool))
}

func checkUnambiguous(c *Ctx, g *Grammar, seen map[*Grammar]bool) error {
	if seen[g] {
		return nil
	}
	seen[g] = true
	switch g.op {
	case opAlt:
		alts := flattenAlt(g, nil)
		regs := make([]*Regex, len(alts))
		for i, a := range alts {
			regs[i] = c.Strip(a)
		}
		for i := 0; i < len(regs); i++ {
			for j := i + 1; j < len(regs); j++ {
				if c.Intersects(regs[i], regs[j]) {
					return &AmbiguityError{Left: regs[i], Right: regs[j]}
				}
			}
		}
		for _, a := range alts {
			if err := checkUnambiguous(c, a, seen); err != nil {
				return err
			}
		}
	case opCat:
		if err := checkUnambiguous(c, g.l, seen); err != nil {
			return err
		}
		return checkUnambiguous(c, g.r, seen)
	case opStar, opMap:
		return checkUnambiguous(c, g.l, seen)
	}
	return nil
}

func flattenAlt(g *Grammar, acc []*Grammar) []*Grammar {
	if g.op == opAlt {
		acc = flattenAlt(g.l, acc)
		return flattenAlt(g.r, acc)
	}
	return append(acc, g)
}
