package grammar

// This file implements byte-equivalence-class compaction for byte-table
// automata, the first of the two classic regex-engine accelerations
// (RE2/Hyperscan style) layered onto the checker's fused product DFA.
// Two bytes are equivalent iff every state maps them to the same
// successor; the x86 policy grammars distinguish far fewer than 256
// byte columns, so the induced states×classes table is several times
// smaller than the raw states×256 table and fits comfortably in L1.
// The class map also underpins the byte-pair tables of the SWAR
// stepper in internal/core, which need a compact domain to enumerate.

// ByteClasses partitions the byte alphabet of a byte-transition table
// into equivalence classes: cls[b1] == cls[b2] iff table[s][b1] ==
// table[s][b2] for every state s. Classes are numbered by first
// occurrence in ascending byte order, so the map is deterministic for a
// given table and cls[0] is always 0. Returns the class map and the
// number of classes n (1 ≤ n ≤ 256); class ids are < n, so they fit the
// uint8 map for any input.
func ByteClasses(table [][256]uint16) (cls [256]uint8, n int) {
	// Column signature: the successor of every state on this byte.
	sig := make([]byte, 2*len(table))
	seen := make(map[string]uint8, 256)
	for b := 0; b < 256; b++ {
		for s := range table {
			v := table[s][b]
			sig[2*s] = byte(v)
			sig[2*s+1] = byte(v >> 8)
		}
		id, ok := seen[string(sig)]
		if !ok {
			id = uint8(len(seen))
			seen[string(sig)] = id
		}
		cls[b] = id
	}
	return cls, len(seen)
}

// CompactTable builds the states×classes table induced by a class map:
// compact[s*n+c] is the successor of state s on any byte of class c.
// The map must come from ByteClasses over the same table (every byte of
// a class has the same column), which VerifyByteClasses checks.
func CompactTable(table [][256]uint16, cls [256]uint8, n int) []uint16 {
	compact := make([]uint16, len(table)*n)
	for b := 0; b < 256; b++ {
		c := int(cls[b])
		for s := range table {
			compact[s*n+c] = table[s][b]
		}
	}
	return compact
}

// VerifyByteClasses checks that (cls, n) is a true byte-class partition
// of the table that refines every state row — i.e. class ids are dense
// in [0, n), every class is inhabited, and two bytes share a class iff
// every state maps them to the same successor — and that compact (when
// non-nil) is exactly the induced states×classes table. This is what a
// loader runs against deserialized class maps so a corrupt or stale
// bundle cannot silently desynchronize the compacted tables from the
// transition table they summarize.
func VerifyByteClasses(table [][256]uint16, cls [256]uint8, n int, compact []uint16) bool {
	if n < 1 || n > 256 {
		return false
	}
	inhabited := make([]bool, n)
	// Representative byte of each class, for the "same class ⇒ same
	// column" direction.
	rep := make([]int, n)
	for i := range rep {
		rep[i] = -1
	}
	for b := 0; b < 256; b++ {
		c := int(cls[b])
		if c >= n {
			return false
		}
		inhabited[c] = true
		if rep[c] < 0 {
			rep[c] = b
		}
		for s := range table {
			if table[s][b] != table[s][rep[c]] {
				return false
			}
		}
	}
	for _, ok := range inhabited {
		if !ok {
			return false
		}
	}
	// Distinct classes ⇒ distinct columns (the partition is no coarser
	// than column equality), checked pairwise over representatives.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			same := true
			for s := range table {
				if table[s][rep[i]] != table[s][rep[j]] {
					same = false
					break
				}
			}
			if same {
				return false
			}
		}
	}
	if compact != nil {
		if len(compact) != len(table)*n {
			return false
		}
		for b := 0; b < 256; b++ {
			c := int(cls[b])
			for s := range table {
				if compact[s*n+c] != table[s][b] {
					return false
				}
			}
		}
	}
	return true
}
