package policy

import (
	"fmt"

	"rocksalt/internal/grammar"
)

// This file builds the fused policy automaton: the product of the three
// checker DFAs (MaskedJump × NoControlFlow × DirectJump) with a tag
// byte per state recording which components accept or are still live.
// The construction lives here, in the policy compiler, because it is
// part of the grammar→tables pipeline; the engine-facing renumbering
// into class bands (and everything the hot loops consume) stays in
// internal/core, which layers on top of the raw product this file
// emits. The step and the tags it follows are defined in product.go.

// FuseProduct builds the minimized fused product automaton of the three
// policy DFAs, returning its start state, per-state tag bytes, and
// transition table. The construction is deterministic: states are
// discovered breadth-first in ascending byte order and the minimizer
// numbers blocks by first occurrence, so the same components always
// fuse to the same tables — the property the embedded-bundle
// regeneration guard checks.
func FuseProduct(masked, noCF, direct *grammar.DFA) (start int, tags []uint8, table [][256]uint16, err error) {
	comps := [3]*grammar.DFA{masked, noCF, direct}
	for i, d := range comps {
		if d.Accepts[d.Start] {
			return 0, nil, nil, fmt.Errorf("policy: fusing component %d: start state accepts the empty string", i)
		}
		if d.Rejects[d.Start] {
			return 0, nil, nil, fmt.Errorf("policy: fusing component %d: start state rejects everything", i)
		}
	}

	first := triple{comps[0].Start, comps[1].Start, comps[2].Start}
	index := map[triple]int{first: 0}
	states := []triple{first}
	for i := 0; i < len(states); i++ {
		var row [256]uint16
		cur := states[i]
		for b := 0; b < 256; b++ {
			nxt := step(&comps, cur, b)
			j, ok := index[nxt]
			if !ok {
				j = len(states)
				if j >= maxProduct {
					return 0, nil, nil, fmt.Errorf("policy: fused product exceeds %d states", maxProduct)
				}
				index[nxt] = j
				states = append(states, nxt)
			}
			row[b] = uint16(j)
		}
		table = append(table, row)
	}
	tags = make([]uint8, len(states))
	for i, t := range states {
		tags[i] = t.tag()
	}

	mStart, mTags, mTable := grammar.MinimizeTaggedDFA(0, tags, table)
	return mStart, mTags, mTable, nil
}
