package core

import "encoding/binary"

// This file is the two-pass region-interleaved fast path of the fused
// engine: the walk the default EngineFused runs over every shard's
// whole-bundle region, with the canonical scalar walk as its rewind
// (parseShardFused). It is the only optimistic stepper, and it needs no
// table beyond the padded restart-closed one (fusedDFA.flat).
//
// Pass 1 splits a shard's whole-bundle range into laneCount contiguous
// regions and walks all of them at once, interleaving the restart-closed
// table steps byte by byte so four independent load chains cover each
// other's latency. Unlike a per-bundle engine, a lane never stops at a
// bundle end: the walk is continuous, and for every byte it consumes it
// stores the resulting state number into the parse's state buffer
// (parseBuf). Thanks to the four-band state numbering (see fusedDFA)
// and the flat table's remapping, the only states that interrupt the
// walk are the truly eventful ones [rec, n): the call form of a masked
// pair, direct jumps, dead walks and the rare history-dependent
// continuations. Every other masked pair ends in a class-1 state, like
// a plain instruction. Recording states — an accept noted
// mid-instruction while a masked pair is still live — are absorbed
// into the inline path entirely: the accept they would record is
// recovered later from the state bytes, by scanning the current
// instruction's stored states when an event finally needs the earliest
// noCF/direct accept positions.
//
// Pass 2 turns the state buffer into the instruction-boundary bitmap
// with branch-free SWAR: eight state bytes are range-checked against the
// class-1 band [quiet, nc) per 64-bit load (a class-1 state marks "an
// instruction ended after this byte"), the per-byte results are packed
// into one bit per byte, and the words are OR-ed into the shared valid
// bitmap. The same pass enforces the policy's structural demand
// posteriorly: every bundle boundary in the region (16-, 32- or 64-byte
// bundles, a mask over each word) must carry a boundary bit. If any
// does not — an instruction straddled a bundle
// boundary, or a lane's walk ended mid-instruction at its region seam —
// the parse reports failure, the dispatcher erases the shard's partial
// writes, and the canonical scalar loop re-parses the shard.
//
// Equivalence argument. When parseShardLanes returns true, its
// boundary bits and collected jump targets are exactly those of the
// canonical scalar parse (parseShardFusedScalar) over the same range:
//
//   - Within a region the walk is the canonical continuous parse.
//     Class-1 states resolve instructions inline (their
//     restart-closed rows are the start row, so flowing through one
//     is identical to restarting), and those are exactly the
//     positions the scalar walk resolves via its "pure noCF accept"
//     rule. A masked pair that is not the call form resolves the same
//     way: the scalar walk takes it outright (top priority) and checks
//     nothing further, and its remapped flat entry is a class-1 state.
//     Recording states never resolve the scalar walk either
//     (masked is still live), so absorbing them loses nothing; their
//     accept positions are recovered verbatim from the stored state
//     tags when an event resolves by priority. Events apply the same
//     priority rule and the same policy checks as the scalar path, or
//     fail the lane parse.
//   - A resolution may rewind the walk; the bytes it re-walks cannot
//     contain a class-1 state (one would itself have resolved the
//     instruction earlier), so no stale boundary survives in the buffer
//     — rewritten states overwrite the doomed segment.
//   - Region seams are bundle boundaries. The posterior bundle check
//     passing at a seam means the previous lane's walk ended exactly at
//     an instruction boundary, so the next lane starting from the start
//     state is the canonical continuation — inductively the whole range
//     matches the single continuous parse.
//   - Any canonical violation in the range (illegal instruction,
//     misaligned call, bad jump target, bundle straddle) either fails a
//     lane event directly or leaves a bundle boundary bit unset, so it
//     can never be reported here: the scalar fallback diagnoses it, and
//     reports stay byte-identical, which FuzzFusedEquiv and the
//     fault-injection cross-check enforce.

// laneCount is the interleave width. Four keeps every lane's hot state
// in registers on amd64 while covering most of the L1 latency of the
// dependent table loads.
const laneCount = 4

// laneCtx is the shared state of one lane parse, stack-allocated by the
// driver and threaded through the event method by pointer.
type laneCtx struct {
	code []byte
	buf  []byte // state byte per parsed byte; index = offset - base
	tags []uint8
	pb   *parseBuf
	sc   *scratch
	base int // region-range start (the shard start)
	// Class-1 band test on state bytes: b is class-1 iff b-qb < c1w
	// (unsigned byte arithmetic).
	qb, c1w uint8
	fstart  uint16
	failed  bool
}

// laneEvent handles a walk entering an eventful state s (>= rec) with
// the event byte at absolute offset o-1; rs is the lane's region start
// and re its end. It returns the state and absolute offset to continue
// from; on an irregularity it marks the parse failed and parks the lane
// at its region end. The logic mirrors fusedDFA.scan's out-of-line tail
// exactly, with the recorded accepts recovered from the state buffer:
// the instruction start is the last class-1 byte before the event (the
// region start if none), and the earliest noCF/direct accept positions
// are read off the stored states' tags.
func (c *Checker) laneEvent(lc *laneCtx, s uint16, o, rs, re int) (uint16, int) {
	buf, base, tags := lc.buf, lc.base, lc.tags
	tag := tags[s]
	if tag&tagAccMasked != 0 {
		// Masked pair: top priority, resolves outright at o. The flat
		// table sends every other form straight to a class-1 state, so
		// this is the call form, FF /2 (see fusedDFA.flat).
		if c.AlignedCalls && o%c.params.bundle != 0 {
			lc.failed = true
			return lc.fstart, re
		}
		buf[o-1-base] = lc.qb
		return lc.fstart, o
	}
	saved := rs
	for j := o - 2; j >= rs; j-- {
		if buf[j-base]-lc.qb < lc.c1w {
			saved = j + 1
			break
		}
	}
	var ln, ld int
	for j := saved; j < o-1; j++ {
		g := tags[buf[j-base]]
		if g&tagAccNoCF != 0 && ln == 0 {
			ln = j + 1
		}
		if g&tagAccDirect != 0 && ld == 0 {
			ld = j + 1
		}
	}
	if tag&tagAccNoCF != 0 && ln == 0 {
		ln = o
	}
	if tag&tagAccDirect != 0 && ld == 0 {
		ld = o
	}
	if tag&tagLiveMasked == 0 &&
		(ln != 0 || tag&tagLiveNoCF == 0 && (ld != 0 || tag&tagLiveDirect == 0)) {
		pos := ln
		if pos == 0 {
			pos = ld
			if pos == 0 {
				// Dead walk: nothing matched. The scalar fallback reports
				// IllegalInstruction here.
				lc.failed = true
				return lc.fstart, re
			}
			if c.AlignedCalls && lc.code[saved] == 0xe8 && pos%c.params.bundle != 0 {
				lc.failed = true
				return lc.fstart, re
			}
			t, ok := jumpTarget(lc.code, saved, pos)
			if !ok {
				lc.failed = true
				return lc.fstart, re
			}
			tAbs := t + int64(lc.sc.base)
			if tAbs >= 0 && tAbs < int64(lc.sc.imgSize) {
				lc.pb.targets = append(lc.pb.targets, int32(t))
			} else if !c.targetAllowed(uint32(tAbs)) {
				lc.failed = true
				return lc.fstart, re
			}
		}
		// Resolution may rewind below o; the doomed bytes in [pos, o)
		// contain no class-1 state and are overwritten by the re-walk.
		buf[pos-1-base] = lc.qb
		return lc.fstart, pos
	}
	// History-dependent continuation (e.g. a direct accept with noCF
	// still live and nothing recorded): store the state itself so later
	// recovery scans see its accept bits, and keep walking.
	buf[o-1-base] = byte(s)
	return s, o
}

// parseShardLanes runs the interleaved two-pass parse over the
// whole-bundle region [start, fullEnd), collecting its jump targets in
// pb. It reports whether the region was fully regular; on false the
// caller must discard the shard's bitmap words and pb's targets and
// re-parse with the scalar loop.
func (c *Checker) parseShardLanes(code []byte, start, fullEnd int, sc *scratch, pb *parseBuf) bool {
	f := c.fused
	if f.flat == nil || f.nc == f.quiet {
		return false
	}
	flat := (*[flatStates * 256]uint16)(f.flat)
	rec := uint16(f.rec)
	L := fullEnd - start
	buf := pb.states[:L]

	lc := laneCtx{
		code:   code,
		buf:    buf,
		tags:   f.tags,
		pb:     pb,
		sc:     sc,
		base:   start,
		qb:     uint8(f.quiet),
		c1w:    uint8(f.nc - f.quiet),
		fstart: uint16(f.start),
	}

	// Contiguous bundle-aligned regions; the last lane takes the
	// remainder. The caller guarantees at least laneCount bundles.
	q := L / laneCount / c.params.bundle * c.params.bundle
	st0, st1, st2, st3 := start, start+q, start+2*q, start+3*q
	en0, en1, en2, en3 := st1, st2, st3, fullEnd
	li0, li1, li2, li3 := code[st0:en0], code[st1:en1], code[st2:en2], code[st3:en3]
	sb0 := buf[st0-start : en0-start]
	sb1 := buf[st1-start : en1-start]
	sb2 := buf[st2-start : en2-start]
	sb3 := buf[st3-start : en3-start]
	// Same-length reslices: the loop guard on sb then proves the li
	// index in bounds too.
	sb0, sb1, sb2, sb3 = sb0[:len(li0)], sb1[:len(li1)], sb2[:len(li2)], sb3[:len(li3)]
	var i0, i1, i2, i3 int
	s0, s1, s2, s3 := lc.fstart, lc.fstart, lc.fstart, lc.fstart

	for i0 < len(sb0) || i1 < len(sb1) || i2 < len(sb2) || i3 < len(sb3) {
		if i0 < len(sb0) {
			if s := flat[int(s0&127)<<8|int(li0[i0])]; s < rec {
				sb0[i0] = byte(s)
				s0 = s
				i0++
			} else {
				var o int
				s0, o = c.laneEvent(&lc, s, st0+i0+1, st0, en0)
				i0 = o - st0
			}
		}
		if i1 < len(sb1) {
			if s := flat[int(s1&127)<<8|int(li1[i1])]; s < rec {
				sb1[i1] = byte(s)
				s1 = s
				i1++
			} else {
				var o int
				s1, o = c.laneEvent(&lc, s, st1+i1+1, st1, en1)
				i1 = o - st1
			}
		}
		if i2 < len(sb2) {
			if s := flat[int(s2&127)<<8|int(li2[i2])]; s < rec {
				sb2[i2] = byte(s)
				s2 = s
				i2++
			} else {
				var o int
				s2, o = c.laneEvent(&lc, s, st2+i2+1, st2, en2)
				i2 = o - st2
			}
		}
		if i3 < len(sb3) {
			if s := flat[int(s3&127)<<8|int(li3[i3])]; s < rec {
				sb3[i3] = byte(s)
				s3 = s
				i3++
			} else {
				var o int
				s3, o = c.laneEvent(&lc, s, st3+i3+1, st3, en3)
				i3 = o - st3
			}
		}
	}
	if lc.failed {
		return false
	}
	return c.laneExtract(buf, sc, start, L)
}

// laneExtract is pass 2: SWAR-extract the boundary bits from the state
// buffer into the shared valid bitmap and enforce that every bundle
// boundary in [start, start+L] is an instruction boundary. Bit
// offset start+base+j+1 is set iff buf[base+j] is a class-1 state (the
// instruction ended after that byte); bit `start` is set unconditionally
// (the region start is an instruction start by construction). The bit
// for offset start+L belongs to the following parse and is only checked
// (the walk must have ended exactly at an instruction boundary), never
// written.
//
// The bundle-boundary demand is a per-word mask: with bundle size 2^k
// (16, 32 or 64 here; larger bundles never reach the lanes), boundary
// offsets within a 64-bit word sit at fixed bit positions 0, 2^k, ...,
// so one AND-compare per word checks them all at once.
func (c *Checker) laneExtract(buf []byte, sc *scratch, start, L int) bool {
	f := c.fused
	// Range test x in [quiet, nc) per byte lane: state bytes are < 128,
	// so x+128-quiet carries into the high bit iff x >= quiet and
	// x+128-nc iff x >= nc; no carry crosses byte lanes.
	const ones = 0x0101010101010101
	A := ones * uint64(128-f.quiet)
	B := ones * uint64(128-f.nc)
	var bmask uint64
	for b := 0; b < 64; b += c.params.bundle {
		bmask |= 1 << uint(b)
	}
	wvalid := sc.valid.Words()
	w := start / 64 // shard starts are 64-aligned
	carry := uint64(1)
	ok := true
	base := 0
	for ; base+64 <= L; base += 64 {
		var bits uint64
		for k := 0; k < 64; k += 8 {
			x := binary.LittleEndian.Uint64(buf[base+k:])
			m := ((x + A) &^ (x + B)) & 0x8080808080808080
			bits |= (m >> 7 * 0x0102040810204080 >> 56) << k
		}
		v := bits<<1 | carry
		wvalid[w] |= v
		carry = bits >> 63
		if v&bmask != bmask {
			ok = false
		}
		w++
	}
	if base < L {
		// Trailing partial word: the region length is a multiple of the
		// bundle size, not of 64, so a 16-byte-bundle region can end 16,
		// 32 or 48 bytes in (a 32-byte one only 32 — only the image's
		// last shard ends like this). rem is a multiple of 16, so the
		// 8-byte loads below never read past buf[L-1]. Bit rem of the
		// word is the offset start+L bit: checked via the final carry,
		// never written.
		rem := L - base
		var bits uint64
		for k := 0; k < rem; k += 8 {
			x := binary.LittleEndian.Uint64(buf[base+k:])
			m := ((x + A) &^ (x + B)) & 0x8080808080808080
			bits |= (m >> 7 * 0x0102040810204080 >> 56) << k
		}
		v := bits<<1 | carry
		inword := uint64(1)<<uint(rem) - 1
		wvalid[w] |= v & inword
		carry = bits >> uint(rem-1) & 1
		if v&(bmask&inword) != bmask&inword {
			ok = false
		}
	}
	// The walk must have tiled the region exactly: the last byte's state
	// is class-1, i.e. offset start+L is an instruction boundary.
	return ok && carry == 1
}
