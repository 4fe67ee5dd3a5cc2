package core

import (
	"fmt"
	"slices"
)

// This file builds the byte-pair tables the SWAR stepper
// (engine_swar.go) walks — the second classic regex-engine acceleration
// after byte classes. Two byte pairs are equivalent iff from every
// state the restart-closed two-step walk stores the same two states (or
// is eventful either step); the pair-class map pcls collapses the 2^16
// pair space onto those classes, and the padded walk table gives, per
// (state, pair class), the two state bytes the single-stride walk would
// have stored — packed little-endian so one uint16 entry is exactly the
// two-byte store into the state buffer. An entry is the sentinel
// strideEventful when either step leaves the inline bands [0, rec); the
// walk then falls back to single-byte steps, which re-discover the
// event at the right byte. Because entries are *defined* as the
// single-stride stores, the state buffer — and everything derived from
// it — is byte-identical between the SWAR stepper and the lanes.
//
// Pair classes factor through byte classes: an entry only reads
// closed-table columns, and two bytes in the same byte class have
// identical columns by definition (cls is the column partition computed
// by computeFast). So the pair's class is a function of (cls[b1],
// cls[b2]) alone, and buildStride computes one column per byte-class
// pair (ncls², ~15k for the shipped automaton) instead of one per raw
// pair (65,536). The SWAR stepper indexes pcls directly with the four
// uint16 pair values sliced out of one 8-byte load, so the pair map
// doubles as its translation table.
//
// The tables are derived data, never serialized: every checker
// constructor builds them from the automaton it has checked (newChecker
// in verifier.go), or builds none and leaves the checker on the lanes.
// They are big (pcls is 128 KiB; the walk rows in use are
// states×pairClasses×2 bytes, ~455 KiB for the shipped 66-state
// automaton), so the pair-indexed walk is L2-resident rather than L1;
// swarAuto gates auto-selection on that hot footprint, and the density
// backoff (engine_swar.go) hands event-dense shards back to the
// L1-resident flat walk.

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
// stepper's hot table footprint (the 128 KiB pair map plus the walk
// rows in use). The shipped automaton needs ~585 KiB, which stays
// L2-resident alongside the 16 KiB code shard on commodity cores; the
// budget rejects pathological runtime-compiled automata whose pair
// partition balloons.
const defaultSWARBudgetBytes = 1 << 20

// strideTables holds the pair-class machinery.
type strideTables struct {
	npcls int
	pcls  []uint16 // 1<<16: byte pair (little-endian uint16) -> class
	walk  []uint16 // flatStates<<strideShift: state<<strideShift | class -> packed entry, sentinel-padded
}

// buildStride builds the pair tables from the closed table. The entry
// for state s and pair b1 b2 is s1 | s2<<8, where s1 = closed[s][b1]
// and s2 = closed[s1][b2], or strideEventful if s1 or s2 is not below
// rec. Each byte-class pair's column — that entry for every state,
// taking the two classes' least bytes — is computed once, packed four
// entries to a word; columns are deduplicated exactly (a hash picks the
// candidate, a compare decides), and a new column gets the next pair
// class. Class pairs are visited c2-major: classes are numbered by first
// occurrence, so that is the ascending order of the pairs b1|b2<<8 that
// first reach each class pair, and pair classes come out numbered by
// first occurrence in pair order. Fails if the automaton is too large
// for the packed encoding or the pair partition exceeds the capacity.
func (f *fusedDFA) buildStride() (*strideTables, error) {
	n, ncls := len(f.table), f.ncls
	if n > flatStates {
		return nil, fmt.Errorf("core: %d states exceed the %d the pair walk supports", n, flatStates)
	}
	var rep [256]byte // each class's least byte
	for b := 255; b >= 0; b-- {
		rep[f.cls[b]] = byte(b)
	}
	// A column is w words. The first step of state s on class c1 is
	// first[c1*4*w+s]; the padding past n steps to state n, whose entry
	// in second below stays 0.
	w := (n + 3) / 4
	first := make([]uint8, ncls*4*w)
	for c := 0; c < ncls; c++ {
		fc := first[c*4*w : (c+1)*4*w]
		for s := range fc {
			fc[s] = uint8(n)
			if s < n {
				fc[s] = uint8(f.closed[s][rep[c]])
			}
		}
	}
	ids := make([]uint16, ncls*ncls) // ids[c2*ncls+c1]: the pair class
	cols := make([]uint64, 0, min(ncls*ncls, stridePairCap)*w)
	const slots = 2 * stridePairCap // open addressing, load <= 1/2
	var slotHash [slots]uint64
	var slotID [slots]uint16 // pair class + 1; 0 is empty
	var second [flatStates]uint16
	col := make([]uint64, w)
	for c2 := 0; c2 < ncls; c2++ {
		// second[s1] is the entry for a walk whose first step reached s1.
		for s1 := 0; s1 < n; s1++ {
			second[s1] = strideEventful
			if s2 := f.closed[s1][rep[c2]]; s1 < f.rec && int(s2) < f.rec {
				second[s1] = uint16(s1) | s2<<8
			}
		}
		for c1 := 0; c1 < ncls; c1++ {
			fc := first[c1*4*w : (c1+1)*4*w]
			h := uint64(0)
			for i := range col {
				q := fc[4*i : 4*i+4 : 4*i+4]
				x := uint64(second[q[0]&(flatStates-1)]) | uint64(second[q[1]&(flatStates-1)])<<16 |
					uint64(second[q[2]&(flatStates-1)])<<32 | uint64(second[q[3]&(flatStates-1)])<<48
				col[i] = x
				h = (h ^ x) * 0x9E3779B97F4A7C15
			}
			slot := h >> (64 - strideShift - 1) // the top log2(slots) bits
			for {
				id := int(slotID[slot]) - 1
				if id < 0 {
					id = len(cols) / w
					if id == stridePairCap {
						return nil, fmt.Errorf("core: pair-class count exceeds %d", stridePairCap)
					}
					slotHash[slot], slotID[slot] = h, uint16(id+1)
					cols = append(cols, col...)
				} else if slotHash[slot] != h || !slices.Equal(cols[id*w:(id+1)*w], col) {
					slot = (slot + 1) % slots
					continue
				}
				ids[c2*ncls+c1] = uint16(id)
				break
			}
		}
	}
	// Transpose the columns into the sentinel-padded walk, one packed
	// word (four state rows) at a time.
	npcls := len(cols) / w
	walk := make([]uint16, flatStates<<strideShift)
	for i := range walk {
		walk[i] = strideEventful
	}
	for i := 0; i < w; i++ {
		for id := 0; id < npcls; id++ {
			x := cols[id*w+i]
			for s := 4 * i; s < min(4*i+4, n); s++ {
				walk[s<<strideShift|id] = uint16(x)
				x >>= 16
			}
		}
	}
	pcls := make([]uint16, 1<<16)
	for p := range pcls {
		pcls[p] = ids[int(f.cls[p>>8])*ncls+int(f.cls[p&0xFF])]
	}
	return &strideTables{npcls: npcls, pcls: pcls, walk: walk}, nil
}

// swarAuto decides whether EngineFused should upgrade to the SWAR
// stepper: the automaton must have pair tables and their hot footprint
// — the 128 KiB pair map plus the walk rows actually touched — must fit
// defaultSWARBudgetBytes, so pathological runtime-compiled automata
// degrade gracefully to the single-stride lanes instead of thrashing
// the cache.
func (f *fusedDFA) swarAuto() bool {
	st := f.stride
	if st == nil || len(f.table) > flatStates {
		return false
	}
	hot := 2*(1<<16) + 2*len(f.table)*st.npcls
	return hot <= defaultSWARBudgetBytes
}
