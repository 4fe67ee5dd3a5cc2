package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"rocksalt/internal/grammar"
)

// This file serializes the generated DFA tables. In the paper's
// deployment story the tables are generated offline from the verified
// grammars and shipped alongside the tiny trusted C checker; here
// cmd/dfagen emits a table bundle and NewCheckerFromTables runs without
// touching the grammar machinery at all — the run-time trusted
// computing base is then the default verify path (the files
// `cmd/experiments -run e7` counts, this loader among them) and the
// bytes of the tables.
//
// There is one bundle format, RSLT4. In order it holds:
//
//	magic   "RSLT4\x00".
//	params  the policy parameters (bundle size, mask length, flags,
//	        guard cutoff, policy name) under their own CRC.
//	fused   the fused product automaton: state count, start state, tag
//	        bytes, transition rows, CRC.
//	stride  the byte-class map and compacted states×classes table, and
//	        (optionally) the pair-class tables the SWAR stepper walks,
//	        under their own CRC. The section is pure acceleration data:
//	        the loader cross-checks the class map against its own
//	        recomputation and ensureStride semantically verifies the
//	        pair tables before first use, so a corrupt or stale section
//	        can cost speed but never change a verdict.
//	DFAs    the three component DFAs the reference engine walks, each
//	        under its own CRC.
//
// Loading is pure deserialization, which is what makes NewChecker on
// the embedded bundle a sub-millisecond operation. The fused section is
// renumbered into the current class-band state order on load
// (reorderByClass). Every size prefix is distrusted: sections are read
// into buffers that grow only as their bytes arrive, so a bundle that
// declares more than it holds costs about what it holds.

// tableMagic identifies a serialized DFA bundle. Bundles written by
// older builds (RSLT1–RSLT3) are refused, with a pointer to cmd/dfagen.
const tableMagic = "RSLT4\x00"

// WriteTables serializes the set as an RSLT4 bundle carrying the
// policy's engine parameters. The stride pair tables are built here
// (offline, where the cost belongs); an automaton whose pair partition
// overflows the packed encoding simply gets none, and its checkers stay
// on the single-stride lanes.
func (s *DFASet) WriteTables(w io.Writer, info PolicyInfo, alignedCalls bool) error {
	fused, err := fuseDFAs(s)
	if err != nil {
		return err
	}
	if st, err := fused.buildStride(); err == nil {
		fused.stride = st
	}
	if _, err := io.WriteString(w, tableMagic); err != nil {
		return err
	}
	if err := writeParams(w, info, alignedCalls); err != nil {
		return err
	}
	if err := writeFused(w, fused); err != nil {
		return err
	}
	if err := writeStride(w, fused); err != nil {
		return err
	}
	for _, d := range []*grammar.DFA{s.MaskedJump, s.NoControlFlow, s.DirectJump} {
		if err := writeDFA(w, d); err != nil {
			return err
		}
	}
	return nil
}

// NewCheckerFromTables builds a checker directly from a serialized
// RSLT4 bundle, bypassing grammar compilation entirely: the fused
// automaton, its acceleration tables, the component DFAs and the
// compiled policy's engine parameters are all deserialized. Every load
// is CRC- and bounds-checked: a corrupted bundle fails closed at this
// boundary, never at verification time.
func NewCheckerFromTables(r io.Reader) (*Checker, error) {
	magic := make([]byte, len(tableMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("core: reading table magic: %w", err)
	}
	if string(magic) != tableMagic {
		return nil, fmt.Errorf("core: unsupported table bundle version %q (this build reads only %q): regenerate the bundle with cmd/dfagen",
			magic, tableMagic)
	}
	params, alignedCalls, err := readParams(r)
	if err != nil {
		return nil, err
	}
	fused, err := readFused(r)
	if err != nil {
		return nil, err
	}
	if err := readStride(r, fused); err != nil {
		return nil, err
	}
	var dfas [3]*grammar.DFA
	for i := range dfas {
		if dfas[i], err = readDFA(r); err != nil {
			return nil, err
		}
	}
	return &Checker{
		masked:       newDFA(dfas[0]),
		noCF:         newDFA(dfas[1]),
		direct:       newDFA(dfas[2]),
		fused:        fused,
		params:       params,
		bundle:       "RSLT4",
		AlignedCalls: alignedCalls,
	}, nil
}

// readSection reads the n bytes of a section whose size the bundle
// declared. The buffer starts at 32 KiB at most and at most doubles,
// each time only after the bytes so far arrived, so a truncated bundle
// cannot make the loader allocate much more than it holds.
func readSection(r io.Reader, n int, what string) ([]byte, error) {
	b := make([]byte, min(n, 32<<10))
	for got := 0; ; {
		k, err := io.ReadFull(r, b[got:])
		if err != nil {
			return nil, fmt.Errorf("core: reading %s: %w", what, err)
		}
		if got += k; got == n {
			return b, nil
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, b)
		b = grown
	}
}

// readRows decodes n transition rows of 256 little-endian uint16s.
func readRows(b []byte, n int) [][256]uint16 {
	rows := make([][256]uint16, n)
	for s := range rows {
		for i := range rows[s] {
			rows[s][i] = binary.LittleEndian.Uint16(b[s*512+i*2:])
		}
	}
	return rows
}

// checkSum reads a section's trailing CRC and compares it with sum.
func checkSum(r io.Reader, sum uint32, what string) error {
	var want uint32
	if err := binary.Read(r, binary.LittleEndian, &want); err != nil {
		return fmt.Errorf("core: reading %s checksum: %w", what, err)
	}
	if want != sum {
		return fmt.Errorf("core: %s checksum mismatch", what)
	}
	return nil
}

// writeParams serializes the policy-parameter block: bundle size, mask
// length, flags (bit 0 = aligned calls), guard cutoff, the policy name,
// and a CRC over all of it.
func writeParams(w io.Writer, info PolicyInfo, alignedCalls bool) error {
	name := info.Name
	if len(name) > maxPolicyNameLen {
		name = name[:maxPolicyNameLen]
	}
	buf := make([]byte, 0, 10+len(name))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(info.BundleSize))
	buf = append(buf, byte(info.MaskLen))
	var flags byte
	if alignedCalls {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, info.GuardCutoff)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(buf))
}

// maxPolicyNameLen bounds the serialized policy name.
const maxPolicyNameLen = 64

// readParams deserializes and validates a policy-parameter block.
func readParams(r io.Reader) (params policyParams, alignedCalls bool, err error) {
	head := make([]byte, 10)
	if _, e := io.ReadFull(r, head); e != nil {
		return params, false, fmt.Errorf("core: reading policy parameters: %w", e)
	}
	crc := crc32.NewIEEE()
	crc.Write(head)
	bundle := int(binary.LittleEndian.Uint16(head))
	mlen := int(head[2])
	flags := head[3]
	guard := binary.LittleEndian.Uint32(head[4:])
	nameLen := int(binary.LittleEndian.Uint16(head[8:]))
	if nameLen > maxPolicyNameLen {
		return params, false, fmt.Errorf("core: implausible policy name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, e := io.ReadFull(r, name); e != nil {
		return params, false, fmt.Errorf("core: reading policy name: %w", e)
	}
	crc.Write(name)
	if e := checkSum(r, crc.Sum32(), "policy parameter"); e != nil {
		return params, false, e
	}
	if bundle < 16 || bundle > 4096 || bundle&(bundle-1) != 0 {
		return params, false, fmt.Errorf("core: implausible policy bundle size %d", bundle)
	}
	if mlen < 1 || mlen > 15 {
		return params, false, fmt.Errorf("core: implausible policy mask length %d", mlen)
	}
	if flags&^byte(1) != 0 {
		return params, false, fmt.Errorf("core: undefined policy flag bits %#x", flags)
	}
	return policyParams{
		name:    string(name),
		bundle:  bundle,
		maskLen: mlen,
		guard:   guard,
	}, flags&1 != 0, nil
}

// writeFused serializes the fused automaton: state count, start state,
// tag bytes, transition rows, and a CRC over tags+rows.
func writeFused(w io.Writer, f *fusedDFA) error {
	n := uint32(len(f.table))
	if err := binary.Write(w, binary.LittleEndian, n); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(f.start)); err != nil {
		return err
	}
	if _, err := w.Write(f.tags); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	crc.Write(f.tags)
	buf := make([]byte, 512)
	for _, row := range f.table {
		for i, v := range row {
			binary.LittleEndian.PutUint16(buf[i*2:], v)
		}
		crc.Write(buf)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// readFused deserializes and validates a fused automaton section.
func readFused(r io.Reader) (*fusedDFA, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n == 0 || n > 1<<16 {
		return nil, fmt.Errorf("core: implausible fused automaton size %d", n)
	}
	var start uint16
	if err := binary.Read(r, binary.LittleEndian, &start); err != nil {
		return nil, err
	}
	tags, err := readSection(r, int(n), "fused tags")
	if err != nil {
		return nil, err
	}
	rows, err := readSection(r, int(n)*512, "fused transitions")
	if err != nil {
		return nil, err
	}
	crc := crc32.NewIEEE()
	crc.Write(tags)
	crc.Write(rows)
	if err := checkSum(r, crc.Sum32(), "fused table"); err != nil {
		return nil, err
	}
	// Bounds pre-check, then renumber into the current class-band state
	// order (the identity on freshly written bundles). validate then
	// recomputes the band boundaries and derives the fast-path
	// structures.
	if int(start) >= int(n) {
		return nil, fmt.Errorf("core: fused start state out of range")
	}
	table := readRows(rows, int(n))
	for s := range table {
		for b := 0; b < 256; b++ {
			if uint32(table[s][b]) >= n {
				return nil, fmt.Errorf("core: fused transition out of range")
			}
		}
	}
	for i, g := range tags {
		if g&^uint8(tagMask) != 0 {
			return nil, fmt.Errorf("core: fused state %d has undefined tag bits %#x", i, g)
		}
	}
	f := reorderByClass(int(start), tags, table)
	if err := f.validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// writeStride serializes the acceleration section: the byte-class map
// and compacted table, the optional pair tables, and a CRC over all of
// it. The byte classes are recomputed from the fused automaton's
// restart-closed table (computeFast has run by construction), so the
// section is always consistent with the fused section it follows.
func writeStride(w io.Writer, f *fusedDFA) error {
	var buf []byte
	le16 := func(v uint16) { buf = append(buf, byte(v), byte(v>>8)) }
	le16(uint16(f.ncls))
	buf = append(buf, f.cls[:]...)
	for _, v := range grammar.CompactTable(f.closed, f.cls, f.ncls) {
		le16(v)
	}
	if st := f.stride; st != nil {
		le16(uint16(st.npcls))
		for _, v := range st.pcls {
			le16(v)
		}
		for _, v := range st.dense {
			le16(v)
		}
	} else {
		le16(0)
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc32.ChecksumIEEE(buf))
}

// readStride deserializes and cross-checks the acceleration section
// against the already-loaded (and renumbered) fused automaton f. The
// class map must equal the loader's own recomputation and the compacted
// table must verify against the closed table (grammar.VerifyByteClasses);
// pair tables get structural checks here and full semantic verification
// in ensureStride before the SWAR stepper ever consumes them, and are
// refused unread for an automaton too large to walk them. Any mismatch
// rejects the bundle: acceleration data that disagrees with the
// automaton it ships with means the bundle is corrupt or mis-generated,
// and refusing it loudly beats silently dropping to a slower path.
func readStride(r io.Reader, f *fusedDFA) error {
	n := len(f.table)
	crc := crc32.NewIEEE()
	// Every count here is bounded by what already arrived: the compacted
	// table by the fused rows, and the pair tables, once the state
	// count is checked, to about 1 MiB.
	readU16s := func(count int) ([]uint16, error) {
		b := make([]byte, 2*count)
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("core: reading stride section: %w", err)
		}
		crc.Write(b)
		out := make([]uint16, count)
		for i := range out {
			out[i] = binary.LittleEndian.Uint16(b[2*i:])
		}
		return out, nil
	}
	head := make([]byte, 2+256)
	if _, err := io.ReadFull(r, head); err != nil {
		return fmt.Errorf("core: reading stride section: %w", err)
	}
	crc.Write(head)
	ncls := int(binary.LittleEndian.Uint16(head))
	if ncls < 1 || ncls > 256 {
		return fmt.Errorf("core: implausible byte-class count %d", ncls)
	}
	var cls [256]uint8
	copy(cls[:], head[2:])
	compact, err := readU16s(n * ncls)
	if err != nil {
		return err
	}
	np, err := readU16s(1)
	if err != nil {
		return err
	}
	npcls := int(np[0])
	var pcls, dense []uint16
	if npcls > 0 {
		if npcls > stridePairCap {
			return fmt.Errorf("core: implausible pair-class count %d", npcls)
		}
		if n > flatStates {
			return fmt.Errorf("core: bundle carries pair tables for %d fused states; they support at most %d", n, flatStates)
		}
		if pcls, err = readU16s(1 << 16); err != nil {
			return err
		}
		if dense, err = readU16s(n * npcls); err != nil {
			return err
		}
	}
	if err := checkSum(r, crc.Sum32(), "stride section"); err != nil {
		return err
	}
	if cls != f.cls || ncls != f.ncls {
		return fmt.Errorf("core: bundled byte-class map disagrees with the fused automaton")
	}
	if !grammar.VerifyByteClasses(f.closed, cls, ncls, compact) {
		return fmt.Errorf("core: bundled byte-class tables fail verification")
	}
	if npcls > 0 {
		for _, v := range pcls {
			if int(v) >= npcls {
				return fmt.Errorf("core: pair class out of range")
			}
		}
		for _, v := range dense {
			if v != strideEventful && (v&0xFF >= uint16(n) || v>>8 >= uint16(n)) {
				return fmt.Errorf("core: pair-table transition out of range")
			}
		}
		f.stride = &strideTables{npcls: npcls, pcls: pcls, dense: dense}
	}
	return nil
}

func writeDFA(w io.Writer, d *grammar.DFA) error {
	n := uint32(d.NumStates())
	if err := binary.Write(w, binary.LittleEndian, n); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(d.Start)); err != nil {
		return err
	}
	status := make([]uint8, n)
	for i := range status {
		switch {
		case d.Accepts[i]:
			status[i] = 1
		case d.Rejects[i]:
			status[i] = 2
		}
	}
	if _, err := w.Write(status); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	crc.Write(status)
	buf := make([]byte, 512)
	for _, row := range d.Table {
		for i, v := range row {
			binary.LittleEndian.PutUint16(buf[i*2:], v)
		}
		crc.Write(buf)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

func readDFA(r io.Reader) (*grammar.DFA, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n == 0 || n > 1<<16 {
		return nil, fmt.Errorf("core: implausible DFA size %d", n)
	}
	var start uint16
	if err := binary.Read(r, binary.LittleEndian, &start); err != nil {
		return nil, err
	}
	if uint32(start) >= n {
		return nil, fmt.Errorf("core: start state out of range")
	}
	status, err := readSection(r, int(n), "DFA states")
	if err != nil {
		return nil, err
	}
	d := &grammar.DFA{
		Start:   int(start),
		Accepts: make([]bool, n),
		Rejects: make([]bool, n),
	}
	for i, st := range status {
		switch st {
		case 0:
		case 1:
			d.Accepts[i] = true
		case 2:
			d.Rejects[i] = true
		default:
			return nil, fmt.Errorf("core: bad state status %d", st)
		}
	}
	rows, err := readSection(r, int(n)*512, "DFA transitions")
	if err != nil {
		return nil, err
	}
	crc := crc32.NewIEEE()
	crc.Write(status)
	crc.Write(rows)
	if err := checkSum(r, crc.Sum32(), "table"); err != nil {
		return nil, err
	}
	d.Table = readRows(rows, int(n))
	for s := range d.Table {
		for _, v := range d.Table[s] {
			if uint32(v) >= n {
				return nil, fmt.Errorf("core: transition out of range")
			}
		}
	}
	return d, nil
}
