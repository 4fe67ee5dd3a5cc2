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
// emits.

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

// compStep advances one normalized component by one byte.
func compStep(d *grammar.DFA, s int, b int) int {
	switch s {
	case compAccept, compDone:
		return compDone
	case compReject:
		return compReject
	}
	t := int(d.Table[s][b])
	switch {
	case d.Accepts[t]:
		return compAccept
	case d.Rejects[t]:
		return compReject
	}
	return t
}

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

	type triple [3]int
	tag := func(t triple) uint8 {
		var g uint8
		accBits := [3]uint8{TagAccMasked, TagAccNoCF, TagAccDirect}
		liveBits := [3]uint8{TagLiveMasked, TagLiveNoCF, TagLiveDirect}
		for i, s := range t {
			switch {
			case s == compAccept:
				g |= accBits[i]
			case s >= 0:
				g |= liveBits[i]
			}
		}
		return g
	}

	first := triple{comps[0].Start, comps[1].Start, comps[2].Start}
	index := map[triple]int{first: 0}
	states := []triple{first}
	for i := 0; i < len(states); i++ {
		var row [256]uint16
		cur := states[i]
		for b := 0; b < 256; b++ {
			nxt := triple{compStep(comps[0], cur[0], b),
				compStep(comps[1], cur[1], b),
				compStep(comps[2], cur[2], b)}
			j, ok := index[nxt]
			if !ok {
				j = len(states)
				if j >= 1<<16 {
					return 0, nil, nil, fmt.Errorf("policy: fused product exceeds %d states", 1<<16)
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
		tags[i] = tag(t)
	}

	mStart, mTags, mTable := grammar.MinimizeTaggedDFA(0, tags, table)
	return mStart, mTags, mTable, nil
}
