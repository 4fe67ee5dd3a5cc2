package core

import "fmt"

// This file builds the optional byte-pair tables the SWAR stepper
// (engine_swar.go) walks — the second classic regex-engine acceleration
// after byte classes. Two byte pairs are equivalent iff from every
// state the restart-closed two-step walk stores the same two states (or
// is eventful either step); the pair-class map pcls collapses the 2^16
// pair space onto those classes, and the dense pair table gives, per
// (state, pair class), the two state bytes the single-stride walk would
// have stored — packed little-endian so one uint16 entry is exactly the
// two-byte store into the state buffer. An entry is the sentinel
// strideEventful when either step leaves the inline bands [0, rec); the
// walk then falls back to single-byte steps, which re-discover the
// event at the right byte. Because entries are *defined* as the
// single-stride stores, the state buffer — and everything derived from
// it — is byte-identical between the SWAR stepper and the lanes.
//
// Pair classes factor through byte classes: encStride(s, b1, b2) only
// reads closed-table columns, and two bytes in the same byte class have
// identical columns by definition (cls is the column partition computed
// in-process by computeFast). So the pair's class is a function of
// (cls[b1], cls[b2]) alone. That fact powers three things here:
//
//   - buildStride computes one dense column per byte-class pair
//     (ncls², ~15k for the shipped automaton) instead of one per raw
//     pair (65,536), while numbering classes exactly as the historical
//     per-pair construction did (first occurrence in ascending pair
//     order, deduped by column signature) so serialized bundles stay
//     byte-identical.
//   - verifyStride checks each byte-class pair's column exhaustively
//     against encStride once, and holds every other pair of the same
//     class pair to that canonical column — the same acceptance set as
//     the old 65,536×states check at a fraction of the cost.
//   - the SWAR stepper (engine_swar.go) indexes pcls directly with the
//     four uint16 pair values sliced out of one 8-byte load — the pair
//     map doubles as the SWAR translation table, so nothing new is
//     derived or serialized and no table format grew.
//
// The tables are big (pcls is 128 KiB; the dense pair table is
// states×pairClasses×2 bytes, ~455 KiB for the shipped 66-state
// automaton), so the pair-indexed walk is L2-resident rather than L1;
// swarAuto gates auto-selection on that hot footprint, and the density
// backoff (engine_swar.go) hands event-dense shards back to the
// L1-resident flat walk. EngineSWAR forces the tables regardless.
// Bundles carry pcls/dense precomputed; they are fully semantically
// verified against the in-process closed table before first use
// (ensureStride), so a corrupt or stale bundle can disable the SWAR
// stepper but never change a verdict.

const (
	// strideShift is the pair-class capacity exponent: the padded walk
	// table is flatStates << strideShift entries, so (state&127)<<shift
	// | (class & (cap-1)) is provably in bounds. Automata whose pair
	// partition exceeds the capacity get no pair tables (the footprint
	// budget would reject them anyway).
	strideShift   = 12
	stridePairCap = 1 << strideShift
	// strideEventful marks a pair transition that leaves the inline
	// bands; valid entries pack two states < 128, so the high bit
	// distinguishes.
	strideEventful = 0xFFFF
)

// defaultSWARBudgetBytes is the auto-selection ceiling on the SWAR
// stepper's hot table footprint (the 128 KiB pair map plus the dense
// walk rows). The shipped automaton needs ~585 KiB, which stays
// L2-resident alongside the 16 KiB code shard on commodity cores; the
// budget rejects pathological runtime-compiled automata whose pair
// partition balloons.
const defaultSWARBudgetBytes = 1 << 20

// strideTables holds the pair-class machinery. pcls and dense are the
// serialized form; walk is the padded runtime table derived by
// ensureStride.
type strideTables struct {
	npcls int
	pcls  []uint16 // 1<<16: byte pair (little-endian uint16) -> class
	dense []uint16 // n*npcls: packed two-state entries, row-major by state
	walk  []uint16 // flatStates<<strideShift, sentinel-padded
}

// encStride is the defining map: the packed entry for state s consuming
// bytes b1 then b2 through the restart-closed table.
func (f *fusedDFA) encStride(s uint16, b1, b2 byte) uint16 {
	s1 := f.closed[s][b1]
	if int(s1) >= f.rec {
		return strideEventful
	}
	s2 := f.closed[s1][b2]
	if int(s2) >= f.rec {
		return strideEventful
	}
	return s1 | s2<<8
}

// buildStride constructs the pair-class map and dense pair table
// from the closed table, deterministically (classes numbered by first
// occurrence in ascending pair order, deduped by column signature —
// the numbering the serialized bundles pin). The dense column is
// computed once per byte-class pair and memoized; pairs in the same
// class pair provably share it (closed columns are equal within a byte
// class), so the output is byte-identical to the historical per-pair
// construction at ~1/4 the cost. Fails if the automaton is too large
// for the packed encoding or the pair partition exceeds the capacity.
func (f *fusedDFA) buildStride() (*strideTables, error) {
	n := len(f.table)
	if n > flatStates {
		return nil, fmt.Errorf("core: %d states exceed the %d the pair walk supports", n, flatStates)
	}
	ncls := f.ncls
	sig := make([]byte, 2*n)
	seen := make(map[string]uint16, stridePairCap)
	pcls := make([]uint16, 1<<16)
	var cols [][]uint16
	colbuf := make([]uint16, n)
	memo := make([]int32, ncls*ncls) // byte-class pair -> id, -1 unseen
	for i := range memo {
		memo[i] = -1
	}
	for p := 0; p < 1<<16; p++ {
		b1, b2 := byte(p), byte(p>>8) // pair index is the LE uint16 of [b1 b2]
		key := int(f.cls[b1])*ncls + int(f.cls[b2])
		if id := memo[key]; id >= 0 {
			pcls[p] = uint16(id)
			continue
		}
		for s := 0; s < n; s++ {
			v := f.encStride(uint16(s), b1, b2)
			colbuf[s] = v
			sig[2*s] = byte(v)
			sig[2*s+1] = byte(v >> 8)
		}
		// Dedup by column signature, not by class pair: two distinct
		// class pairs with coincidentally equal columns share one id,
		// exactly as the per-pair construction numbered them.
		id, ok := seen[string(sig)]
		if !ok {
			if len(seen) >= stridePairCap {
				return nil, fmt.Errorf("core: pair-class count exceeds %d", stridePairCap)
			}
			id = uint16(len(seen))
			seen[string(sig)] = id
			cols = append(cols, append([]uint16(nil), colbuf...))
		}
		memo[key] = int32(id)
		pcls[p] = id
	}
	npcls := len(seen)
	dense := make([]uint16, n*npcls)
	for s := 0; s < n; s++ {
		for p := 0; p < npcls; p++ {
			dense[s*npcls+p] = cols[p][s]
		}
	}
	return &strideTables{npcls: npcls, pcls: pcls, dense: dense}, nil
}

// verifyStride checks a deserialized stride section semantically
// against the in-process closed table. The acceptance set is identical
// to the historical exhaustive 65,536×states check, factored through
// the byte classes: the first pair of each byte-class pair (the
// canonical pair) has its dense column verified against encStride for
// every state; any later pair of the same class pair provably demands
// the same column (closed columns are equal within a byte class), so
// it is held to the canonical pair's column — equal id passes outright,
// a different id must carry an equal column. A bundle whose stride
// tables passed the CRC but disagree semantically (a stale or
// hand-edited bundle) is rejected here, before the SWAR stepper ever
// consumes them.
func (f *fusedDFA) verifyStride(st *strideTables) error {
	n := len(f.table)
	if n > flatStates {
		return fmt.Errorf("core: %d states exceed the %d the pair walk supports", n, flatStates)
	}
	if st.npcls < 1 || st.npcls > stridePairCap {
		return fmt.Errorf("core: implausible pair-class count %d", st.npcls)
	}
	if len(st.pcls) != 1<<16 || len(st.dense) != n*st.npcls {
		return fmt.Errorf("core: stride table sizes do not match the automaton")
	}
	ncls := f.ncls
	canon := make([]int32, ncls*ncls) // byte-class pair -> canonical id, -1 unseen
	for i := range canon {
		canon[i] = -1
	}
	for p := 0; p < 1<<16; p++ {
		id := int(st.pcls[p])
		if id >= st.npcls {
			return fmt.Errorf("core: pair class out of range")
		}
		b1, b2 := byte(p), byte(p>>8)
		key := int(f.cls[b1])*ncls + int(f.cls[b2])
		switch cid := canon[key]; {
		case cid < 0:
			for s := 0; s < n; s++ {
				if st.dense[s*st.npcls+id] != f.encStride(uint16(s), b1, b2) {
					return fmt.Errorf("core: pair table disagrees with the closed walk at state %d pair %#04x", s, p)
				}
			}
			canon[key] = int32(id)
		case int32(id) != cid:
			// A different id for an equivalent pair is legal only if its
			// column is identical to the canonical (already verified) one.
			for s := 0; s < n; s++ {
				if st.dense[s*st.npcls+id] != st.dense[s*st.npcls+int(cid)] {
					return fmt.Errorf("core: pair table disagrees with the closed walk at state %d pair %#04x", s, p)
				}
			}
		}
	}
	return nil
}

// ensureStride makes f's stride tables ready for the walk, once:
// bundle-shipped tables are semantically verified, otherwise they are
// built from the closed table, and either way the padded walk table is
// materialized. Runs once per automaton (a few milliseconds); the error
// is sticky, and a failure leaves the engine on the single-stride lanes.
func (f *fusedDFA) ensureStride() error {
	f.strideOnce.Do(func() {
		st := f.stride
		if st != nil {
			if err := f.verifyStride(st); err != nil {
				f.stride = nil
				f.strideErr = err
				return
			}
		} else {
			built, err := f.buildStride()
			if err != nil {
				f.strideErr = err
				return
			}
			st = built
			f.stride = st
		}
		walk := make([]uint16, flatStates<<strideShift)
		for i := range walk {
			walk[i] = strideEventful
		}
		n := len(f.table)
		for s := 0; s < n; s++ {
			copy(walk[s<<strideShift:s<<strideShift+st.npcls], st.dense[s*st.npcls:(s+1)*st.npcls])
		}
		st.walk = walk
	})
	return f.strideErr
}

// swarReady reports whether the SWAR stepper's tables — the padded walk
// (verified by ensureStride), the pair map and the flat fallback table
// — are materialized.
func (f *fusedDFA) swarReady() bool {
	return f.stride != nil && f.stride.walk != nil && f.flat != nil
}

// swarAuto decides whether EngineFused should upgrade to the SWAR
// stepper: the automaton must fit the packed encodings and the hot
// table footprint — the 128 KiB pair map plus the dense walk rows
// actually touched — must fit defaultSWARBudgetBytes, so pathological
// runtime-compiled automata degrade gracefully to the single-stride
// lanes instead of thrashing the cache.
func (f *fusedDFA) swarAuto() bool {
	if len(f.table) > flatStates {
		return false
	}
	st := f.stride
	if st == nil {
		return false
	}
	hot := 2*(1<<16) + 2*len(f.table)*st.npcls
	return hot <= defaultSWARBudgetBytes
}
