package policy

import (
	"fmt"

	"rocksalt/internal/grammar"
)

// This file is the one definition of the fused product's semantics: the
// tag bits, the normalized component step, and the tag a triple of
// component states carries. FuseProduct (fuse.go) builds the fused
// automaton from it; CheckProduct holds a fused table loaded from a
// bundle to it. The checker's table loader runs CheckProduct, so this
// file is on the default verify path and counted as trusted code.

// Tag bits of a fused state. Accept bits are set exactly on the state
// entered by the byte that completes a component's first match, so a
// walk observes each accept bit at most once; live bits are set while
// the component can still reach an accept. Serialized in table
// bundles, so the layout is part of the table format.
const (
	TagAccMasked  = 1 << 0
	TagAccNoCF    = 1 << 1
	TagAccDirect  = 1 << 2
	TagLiveMasked = 1 << 3
	TagLiveNoCF   = 1 << 4
	TagLiveDirect = 1 << 5

	TagAccAny  = TagAccMasked | TagAccNoCF | TagAccDirect
	TagLiveAny = TagLiveMasked | TagLiveNoCF | TagLiveDirect

	// TagMask covers every defined bit; loaders reject tags outside it.
	TagMask = TagAccAny | TagLiveAny
)

// Normalized component states for the product construction: non-negative
// values are live states of the component DFA (never accepting or
// rejecting), the rest are the three collapsed states. Each component
// only matters up to its *first* accepting state (the Figure-6 match
// stops there), so an accepting component collapses to a one-shot
// "accept now" state and then to a done sink; rejecting states are
// already sinks. With both collapses the product of the policy DFAs
// stays in the low hundreds of states before minimization.
const (
	compAccept = -1 // entered by the byte completing the first match
	compDone   = -2 // post-accept sink
	compReject = -3 // reject sink (the component's Void derivative)
)

// triple is a product state: one normalized state per component, in the
// order MaskedJump, NoControlFlow, DirectJump.
type triple [3]int

// maxProduct caps the product states FuseProduct discovers and the
// pairs CheckProduct walks.
const maxProduct = 1 << 16

// step advances every normalized component of t by byte b.
func step(comps *[3]*grammar.DFA, t triple, b int) triple {
	var nxt triple
	for i, d := range comps {
		switch s := t[i]; s {
		case compAccept, compDone:
			nxt[i] = compDone
		case compReject:
			nxt[i] = compReject
		default:
			u := int(d.Table[s][b])
			switch {
			case d.Accepts[u]:
				nxt[i] = compAccept
			case d.Rejects[u]:
				nxt[i] = compReject
			default:
				nxt[i] = u
			}
		}
	}
	return nxt
}

// tag is the tag byte of a product state. The accept and live bits are
// each laid out in component order, so component i owns bit i of both.
func (t triple) tag() uint8 {
	var g uint8
	for i, s := range t {
		switch {
		case s == compAccept:
			g |= TagAccMasked << i
		case s >= 0:
			g |= TagLiveMasked << i
		}
	}
	return g
}

// CheckProduct checks a fused table against the three component DFAs
// it claims to be the product of. It walks pairs of (fused state,
// component-state triple) breadth-first from the two start states,
// stepping both on every byte, and fails at the first reachable pair
// whose fused tag is not the triple's — FuseProduct's search run beside
// the given table. Every walk through a table that passes observes the
// tag sequence the components define, which is all the fused engines
// read. The caller bounds-checks start, tags and transitions.
func CheckProduct(start int, tags []uint8, table [][256]uint16, masked, noCF, direct *grammar.DFA) error {
	comps := [3]*grammar.DFA{masked, noCF, direct}
	type pair struct {
		f int
		t triple
	}
	first := pair{start, triple{masked.Start, noCF.Start, direct.Start}}
	seen := map[pair]bool{first: true}
	queue := []pair{first}
	for i := 0; i < len(queue); i++ {
		p := queue[i]
		if g := p.t.tag(); tags[p.f] != g {
			return fmt.Errorf("policy: fused table disagrees with its component DFAs: fused state %d is tagged %#x where the components give %#x", p.f, tags[p.f], g)
		}
		last := p // runs of equal successors in a row skip the map
		for b := 0; b < 256; b++ {
			nxt := pair{int(table[p.f][b]), step(&comps, p.t, b)}
			if nxt == last {
				continue
			}
			last = nxt
			if seen[nxt] {
				continue
			}
			if len(queue) >= maxProduct {
				return fmt.Errorf("policy: fused table and component DFAs reach more than %d state pairs", maxProduct)
			}
			seen[nxt] = true
			queue = append(queue, nxt)
		}
	}
	return nil
}
