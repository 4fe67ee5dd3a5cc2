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
// There is one bundle format, RSLT5. It holds only what the loader
// cannot derive, in order:
//
//	magic   "RSLT5\x00".
//	params  the policy parameters (bundle size, mask length, flags,
//	        guard cutoff, policy name) under their own CRC.
//	fused   the fused product automaton the default engines walk:
//	        state count, start state, tag bytes, transition rows, CRC.
//	DFAs    the three component DFAs the reference engine walks, each
//	        under its own CRC.
//
// The fused automaton is validated as written (bounds, tag bits,
// class-band order) and then checked against the component DFAs
// (policy.CheckProduct), so a fused table that disagrees with them
// fails closed at load even behind consistent CRCs. The tables the
// engines derive from it — the single-byte and the padded
// restart-closed tables — are built in-process by the one checker
// constructor (newChecker). Every size prefix is distrusted: sections
// are read into buffers that grow only as their bytes arrive, so a
// bundle that declares more than it holds costs about what it holds.

// tableVersion names the bundle format, and tableMagic opens every
// bundle. Bundles written by older builds (RSLT1–RSLT4) are refused,
// with a pointer to cmd/dfagen.
const (
	tableVersion = "RSLT5"
	tableMagic   = tableVersion + "\x00"
)

// WriteTables serializes the set as an RSLT5 bundle carrying the
// policy's engine parameters.
func (s *DFASet) WriteTables(w io.Writer, info PolicyInfo, alignedCalls bool) error {
	fused, err := fuseDFAs(s)
	if err != nil {
		return err
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
	for _, d := range []*grammar.DFA{s.MaskedJump, s.NoControlFlow, s.DirectJump} {
		if err := writeDFA(w, d); err != nil {
			return err
		}
	}
	return nil
}

// NewCheckerFromTables builds a checker directly from a serialized
// RSLT5 bundle, bypassing grammar compilation entirely: the fused
// automaton, the component DFAs and the compiled policy's engine
// parameters are deserialized, and the fused automaton is checked
// against the component DFAs before any table is derived from it. Every
// load is CRC- and bounds-checked: a corrupted or forged bundle fails
// closed at this boundary, never at verification time.
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
	var dfas [3]*grammar.DFA
	for i := range dfas {
		if dfas[i], err = readDFA(r); err != nil {
			return nil, err
		}
	}
	set := &DFASet{MaskedJump: dfas[0], NoControlFlow: dfas[1], DirectJump: dfas[2]}
	return newChecker(fused, set, params, tableVersion, alignedCalls)
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

// readFused deserializes a fused automaton section, checks its CRC and
// validates the table as written.
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
	f := &fusedDFA{start: int(start), tags: tags, table: readRows(rows, int(n))}
	if err := f.validate(); err != nil {
		return nil, err
	}
	return f, nil
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
