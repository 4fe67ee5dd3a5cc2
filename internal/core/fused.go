package core

import (
	"fmt"
	"sync"

	"rocksalt/internal/policy"
	"rocksalt/internal/vcache"
)

// This file hosts the fused policy automaton in the table form the
// engine walks: the product of the three checker DFAs (MaskedJump ×
// NoControlFlow × DirectJump) with a tag byte per state recording which
// components accept or are still live. The product construction itself
// (collapse-to-sinks, BFS discovery, tagged minimization) lives in
// internal/policy (FuseProduct), since it is part of the grammar→tables
// pipeline; this file layers the engine-facing renumbering and the
// derived fast-path table on top: the padded restart-closed table the
// lanes walk. That is all the engines derive (32 KiB, built by
// computeFast at checker construction).
// The seed engine's Figure-5 loop tries the three DFAs sequentially at
// every offset, rescanning the same bytes on each failed attempt; the
// fused automaton reproduces the exact same decision — masked's first
// accept wins, else noCF's, else direct's — in a single table walk that
// stops as soon as every component has either accepted or rejected.

// Tag bits of a fused state, aliased from the policy compiler (which
// owns the serialized layout; see policy.TagAccMasked and friends).
const (
	tagAccMasked  = policy.TagAccMasked
	tagAccNoCF    = policy.TagAccNoCF
	tagAccDirect  = policy.TagAccDirect
	tagLiveMasked = policy.TagLiveMasked
	tagLiveNoCF   = policy.TagLiveNoCF
	tagLiveDirect = policy.TagLiveDirect

	tagAccAny  = policy.TagAccAny
	tagLiveAny = policy.TagLiveAny

	// tagMask covers every defined bit; loaders reject tags outside it.
	tagMask = policy.TagMask
)

// fusedDFA is the product automaton in the table form the engine walks.
// States are renumbered by class (see stateClass): quiet states occupy
// [0, quiet), states whose tag is exactly tagAccNoCF — a complete noCF
// instruction with every other component resolved, the overwhelmingly
// common way an instruction ends — occupy [quiet, nc), recording states
// (an accept happened but a masked pair is still live, so the walk just
// remembers it and keeps going) occupy [nc, rec), and the rest [rec, n).
// The hot loops then classify a state with integer compares on the
// number itself, no tag load: `s < quiet` skips all stop logic, and
// `s < rec` keeps the restart-closed walk inline — recording states need
// no action at all during the walk, because the accept they would record
// is recoverable later from the state the walk stored for that byte.
type fusedDFA struct {
	start int
	quiet int
	nc    int
	rec   int
	tags  []uint8
	table [][256]uint16
	// flat is the restart-closed transition table the lane engine
	// walks, flattened, padded to 128 state rows and one byte wide. The
	// low 7 bits of flat[s<<8|b] are table[s][b], except that class-1
	// states (pure noCF accept, nothing live — the instruction just
	// ended and nothing else can match) transition as if from the start
	// state, and that a transition into a masked-pair accept on any byte
	// but the call form's modrm (FF /2, the only form a policy check
	// follows) goes to the first class-1 state instead: the pair has top
	// priority, so it ends exactly like a plain instruction. Bit 7 is set
	// exactly when that target is eventful (>= rec), so the pass-1 walk
	// detects an event on any of its four lanes with one OR of the four
	// bytes it looked up. A walk over the table never stops at the
	// common instruction end; it flows straight into the next
	// instruction, and the engine recovers the boundary positions from
	// the state numbers it passes through. The walk indexes it as
	// flat[int(s&127)<<8|int(b)], which the compiler can prove in-bounds
	// against the fixed 1<<15 length, so the hottest load carries no
	// bounds check. 32 KiB, derived on load, never serialized.
	flat []uint8
	// fp memoizes the content hash of (start, tags, table) — the
	// automaton's identity in verdict-cache keys (see cache.go).
	fpOnce sync.Once
	fp     vcache.Key
	// la memoizes lookahead(): the worst-case number of bytes a single
	// walk from the start state can consume before the stop rule fires.
	laOnce sync.Once
	la     int
}

// lookahead bounds how far past a position any engine can read while
// deciding the instruction that starts there: the longest walk from the
// start state through states the stop rule would continue from (quiet
// states, and eventful states that neither accepted masked nor went
// fully dead). A shard or chunk parse therefore depends only on its own
// bytes plus at most lookahead()-1 bytes beyond its end — the fact the
// chunk cache and the delta verifier key on. The reference engine's
// per-component walks read no further: each component automaton's
// liveness is a projection of the product's, so its walks die (or
// accept) no later than the product's stop rule. A cycle among
// continuing states (impossible for the x86 grammars, whose instruction
// length is bounded, but reachable through a custom table bundle) falls
// back to the chunk size, which disables cross-chunk reuse rather than
// unsoundly enabling it.
func (f *fusedDFA) lookahead() int {
	f.laOnce.Do(func() {
		cont := func(s uint16) bool {
			if int(s) < f.quiet {
				return true
			}
			tag := f.tags[s]
			return tag&tagAccMasked == 0 && tag&tagLiveAny != 0
		}
		// depth[s]: 0 unvisited, -1 on the current DFS path (cycle when
		// re-entered), otherwise 2 + longest remaining walk from s.
		depth := make([]int, len(f.table))
		cyclic := false
		var walk func(s uint16) int
		walk = func(s uint16) int {
			switch d := depth[s]; {
			case d == -1:
				cyclic = true
				return 0
			case d > 0:
				return d - 2
			}
			depth[s] = -1
			best := 0
			row := &f.table[s]
			for b := 0; b < 256 && !cyclic; b++ {
				t := row[b]
				steps := 1
				if cont(t) {
					steps += walk(t)
				}
				if steps > best {
					best = steps
				}
			}
			depth[s] = best + 2
			return best
		}
		n := walk(uint16(f.start))
		if cyclic || n <= 0 || n > chunkBytes {
			n = chunkBytes
		}
		f.la = n
	})
	return f.la
}

// flatStates is the padded state capacity of the flat table. Automata
// with more states (possible only through custom table bundles; the
// shipped fused product has 66) get no flat table and are verified by
// the Figure-5 loop alone.
const flatStates = 128

// computeFast derives the never-serialized table the lanes walk from a
// checked automaton: the padded byte-wide restart-closed table with its
// masked-pair remapping and event bit (skipped with more than
// flatStates states, when the lanes never run).
func (f *fusedDFA) computeFast() {
	if len(f.table) > flatStates {
		return
	}
	row := &f.table[f.start]
	f.flat = make([]uint8, flatStates*256)
	for s := range f.table {
		src := &f.table[s]
		if s >= f.quiet && s < f.nc {
			src = row
		}
		dst := f.flat[s<<8 : (s+1)<<8]
		for b, t := range src {
			if f.nc > f.quiet && f.tags[t]&tagAccMasked != 0 && b>>3&7 != 2 {
				t = uint16(f.quiet)
			}
			if dst[b] = uint8(t); int(t) >= f.rec {
				dst[b] |= laneEventBit
			}
		}
	}
}

// eventfulTag reports whether a walk must inspect the state's tag: a
// component just accepted, or no component is live anymore. Quiet states
// (live, nothing accepting) are the overwhelming majority of steps.
func eventfulTag(g uint8) bool {
	return g&tagAccAny != 0 || g&tagLiveAny == 0
}

// stateClass orders the renumbering classes: 0 quiet, 1 "pure noCF
// accept" (tag exactly tagAccNoCF), 2 recording (an accept with no
// masked accept and masked still live — the walk can never resolve
// here, whatever was recorded earlier, so it only needs to remember
// the state), 3 everything else eventful.
func stateClass(g uint8) int {
	switch {
	case !eventfulTag(g):
		return 0
	case g == tagAccNoCF:
		return 1
	case g&tagAccMasked == 0 && g&tagLiveMasked != 0:
		return 2
	}
	return 3
}

const numStateClasses = 4

// fuseDFAs builds the minimized fused product automaton for a DFA set
// (policy.FuseProduct) and renumbers it into the engine's class bands.
// The construction is deterministic end to end, so the same tables
// always fuse to the same bytes — the property the embedded-bundle
// regeneration guard checks.
func fuseDFAs(set *DFASet) (*fusedDFA, error) {
	mStart, mTags, mTable, err := policy.FuseProduct(set.MaskedJump, set.NoControlFlow, set.DirectJump)
	if err != nil {
		return nil, err
	}
	return reorderByClass(mStart, mTags, mTable), nil
}

// reorderByClass renumbers the minimized product so the stateClass
// sequence is non-decreasing, preserving relative order within each
// class — a deterministic permutation, so serialized bundles stay
// reproducible. The boundaries themselves are not serialized; the
// loader recomputes them from the tags (validate) and refuses a table
// that is not in this order.
func reorderByClass(start int, tags []uint8, table [][256]uint16) *fusedDFA {
	n := len(tags)
	perm := make([]int, n)
	var count [numStateClasses]int
	for _, g := range tags {
		count[stateClass(g)]++
	}
	var next [numStateClasses]int
	for cl := 1; cl < numStateClasses; cl++ {
		next[cl] = next[cl-1] + count[cl-1]
	}
	for i, g := range tags {
		cl := stateClass(g)
		perm[i] = next[cl]
		next[cl]++
	}
	f := &fusedDFA{
		start: perm[start],
		quiet: count[0],
		nc:    count[0] + count[1],
		rec:   count[0] + count[1] + count[2],
		tags:  make([]uint8, n),
		table: make([][256]uint16, n),
	}
	for i, g := range tags {
		ni := perm[i]
		f.tags[ni] = g
		for b := 0; b < 256; b++ {
			f.table[ni][b] = uint16(perm[int(table[i][b])])
		}
	}
	return f
}

// validate bounds-checks a deserialized fused automaton as written, so
// a corrupt bundle can never index out of range at verification time,
// and recomputes the class boundaries the hot loops depend on. A table
// that is not class-partitioned is refused — the walk would silently
// misclassify states otherwise (a quiet-region accept state would never
// be seen; an out-of-place eventful state would resolve as a plain noCF
// instruction) — and cmd/dfagen never writes one.
func (f *fusedDFA) validate() error {
	n := len(f.table)
	if f.start >= n {
		return fmt.Errorf("core: fused start state out of range")
	}
	prev := 0
	q, nc, rec := n, n, n
	for i, g := range f.tags {
		if g&^uint8(tagMask) != 0 {
			return fmt.Errorf("core: fused state %d has undefined tag bits %#x", i, g)
		}
		cl := stateClass(g)
		if cl < prev {
			return fmt.Errorf("core: fused states are not class-partitioned (class %d state %d after class %d)", cl, i, prev)
		}
		if cl >= 1 && q == n {
			q = i
		}
		if cl >= 2 && nc == n {
			nc = i
		}
		if cl == 3 && rec == n {
			rec = i
		}
		prev = cl
	}
	f.quiet, f.nc, f.rec = q, nc, rec
	for s := range f.table {
		for _, t := range f.table[s] {
			if int(t) >= n {
				return fmt.Errorf("core: fused transition out of range")
			}
		}
	}
	return nil
}
