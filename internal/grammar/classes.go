package grammar

// This file implements byte-equivalence-class compaction for byte-table
// automata, the first of the two classic regex-engine accelerations
// (RE2/Hyperscan style) layered onto the checker's fused product DFA.
// Two bytes are equivalent iff every state maps them to the same
// successor; the x86 policy grammars distinguish far fewer than 256
// byte columns, so the induced states×classes table is several times
// smaller than the raw states×256 table and fits comfortably in L1.
// The class map also underpins the byte-pair tables of the SWAR
// stepper in internal/core, which need a compact domain to enumerate;
// the checker recomputes it in-process and never loads one.

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
