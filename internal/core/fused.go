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
	// walks, flattened, padded to 128 state rows and one byte wide, in
	// the flat numbering: the states above plus a pseudo-state D, which
	// ends a direct jump. D takes number nc, at the top of the class-1
	// band, and the states from nc on shift up by one; ftags and fstart
	// are the tags and the start state in that numbering, [quiet, fnc)
	// is its class-1 band, D included, and [fd, fnc) is D alone (empty
	// when the automaton has no D; see computeFast). The low 7 bits of
	// the entry for state s and byte b are table[s][b] renumbered, except
	// that class-1 states (pure noCF accept, nothing live — the
	// instruction just ended and nothing else can match) and D transition
	// as if from the start state; that a transition into a masked-pair
	// accept on any byte but the call form's modrm (FF /2, the only form
	// a policy check follows) goes to the first class-1 state instead:
	// the pair has top priority, so it ends exactly like a plain
	// instruction; and that a transition into a pure direct accept the
	// stop rule always takes (directEnds) goes to D, whose checks pass 2
	// applies. Bit 7 is set exactly when that target is eventful (at or
	// above rec in the flat numbering), so the pass-1 walk detects an
	// event on any of its four lanes with one OR of the four bytes it
	// looked up. A walk over the table never stops at the common
	// instruction end or at a direct jump; it flows straight into the
	// next instruction, and the engine recovers the boundary positions
	// from the state numbers it passes through. The walk indexes it as
	// flat[int(s&127)<<8|int(b)], which the compiler can prove in-bounds
	// against the fixed 1<<15 length, so the hottest load carries no
	// bounds check. 32 KiB, derived on load, never serialized.
	flat            []uint8
	ftags           []uint8
	fstart, fd, fnc int
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
// delta verifier's dirty set and the streaming window rest on. The
// reference engine's per-component walks read no further: each
// component automaton's liveness is a projection of the product's, so
// its walks die (or accept) no later than the product's stop rule. A
// cycle among continuing states (impossible for the x86 grammars, whose
// instruction length is bounded, but reachable through a custom table
// bundle) falls back to the chunk size, which disables cross-chunk
// reuse rather than unsoundly enabling it.
func (f *fusedDFA) lookahead() int {
	f.laOnce.Do(func() {
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
				if f.continues(t) {
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
// checked automaton: the padded byte-wide restart-closed table in the
// flat numbering, with its masked-pair remapping, its direct-jump end D
// and its event bit (skipped with more than flatStates states, when the
// lanes never run). The automaton gets a D only if some state qualifies
// (directEnds) and a row is left for it; otherwise the flat numbering
// is the automaton's own and every direct jump stays an event.
func (f *fusedDFA) computeFast() {
	n := len(f.table)
	if n > flatStates {
		return
	}
	ends, shift := f.directEnds()
	num := func(s int) int {
		if s >= f.nc {
			return s + shift
		}
		return s
	}
	f.fstart, f.fd, f.fnc = num(f.start), f.nc, f.nc+shift
	rec := num(f.rec)
	row := &f.table[f.start]
	f.flat = make([]uint8, flatStates*256)
	f.ftags = make([]uint8, n+shift)
	for s := range f.table {
		src := &f.table[s]
		if s >= f.quiet && s < f.nc {
			src = row
		}
		r := num(s)
		f.ftags[r] = f.tags[s]
		dst := f.flat[r<<8 : (r+1)<<8]
		for b, t := range src {
			v := num(int(t))
			switch {
			case ends[t]:
				v = f.fd
			case f.nc > f.quiet && f.tags[t]&tagAccMasked != 0 && b>>3&7 != 2:
				v = f.quiet
			}
			if dst[b] = uint8(v); v >= rec {
				dst[b] |= laneEventBit
			}
		}
	}
	if shift == 1 {
		// D ends the instruction like a class-1 state.
		f.ftags[f.fd] = tagAccDirect
		copy(f.flat[f.fd<<8:(f.fd+1)<<8], f.flat[f.quiet<<8:])
	}
}

// directEnds marks the states the flat table folds into D: the pure
// direct accepts (tag exactly tagAccDirect) where laneEvent's stop rule
// always resolves a direct jump ending at that byte. It does so unless
// a noCF or direct accept came earlier in the same instruction, so a
// state qualifies only if no walk from the start state reaches it past
// such an accept. The walks are a breadth-first search over (state,
// whether an accept has been passed) through every state the stop rule
// may continue from (continues). shift is 1 when some state qualifies,
// the flat table has a row left for D and a class-1 row for D to copy,
// 0 otherwise (and then no state is marked).
func (f *fusedDFA) directEnds() (ends [flatStates]bool, shift int) {
	n := len(f.table)
	if n >= flatStates || f.nc == f.quiet {
		return ends, 0
	}
	accepted := func(s uint16) int {
		if f.tags[s]&(tagAccNoCF|tagAccDirect) != 0 {
			return 1
		}
		return 0
	}
	var seen [flatStates][2]bool
	var late [flatStates]bool
	var queue [2 * flatStates]uint16 // state<<1 | passed an accept
	h := accepted(uint16(f.start))
	seen[f.start][h] = true
	queue[0] = uint16(f.start<<1 | h)
	for head, tail := 0, 1; head < tail; head++ {
		s, h := queue[head]>>1, int(queue[head]&1)
		for _, t := range &f.table[s] {
			if h == 1 && f.tags[t] == tagAccDirect {
				late[t] = true
			}
			if th := h | accepted(t); f.continues(t) && !seen[t][th] {
				seen[t][th] = true
				queue[tail] = t<<1 | uint16(th)
				tail++
			}
		}
	}
	for s := 0; s < n; s++ {
		if f.tags[s] == tagAccDirect && !late[s] {
			ends[s], shift = true, 1
		}
	}
	return ends, shift
}

// continues reports whether the stop rule may continue a walk from
// state s: s is quiet, or no component has accepted masked and some
// component is still live.
func (f *fusedDFA) continues(s uint16) bool {
	if int(s) < f.quiet {
		return true
	}
	g := f.tags[s]
	return g&tagAccMasked == 0 && g&tagLiveAny != 0
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
