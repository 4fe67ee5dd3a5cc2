package core

import "encoding/binary"

// This file is the two-pass lockstep fast path of the fused engine: the
// walk the default EngineFused runs over every shard's whole-bundle
// region, with the Figure-5 loop (parseShardRef) as its rewind
// (parseShardFused). It is the only optimistic stepper, and it needs no
// table beyond the padded, byte-wide restart-closed one (fusedDFA.flat).
//
// Pass 1 splits the region into laneCount lanes, its bundle-aligned
// quarters (the last one also takes the remainder of under laneCount
// bundles), and walks them in lockstep on one shared index: each step
// looks up the next byte of all four lanes, so four independent load
// chains cover each other's latency. The region's code is first copied
// into the parse's state buffer (parseBuf), and each step overwrites
// the four bytes it read with the states it looked up, so the loop
// (laneLockstep) addresses one array through four lane bases; it makes
// no calls, and its four states, its index and bound, the lane bases
// and the table all stay in registers. Unlike a per-bundle engine, a
// lane never stops at a bundle end: the walk is continuous, and every
// byte it consumes ends up holding the resulting state number. Thanks
// to the four-band state numbering (see fusedDFA) and the flat table's
// remapping, the only states that interrupt the walk are the truly
// eventful ones [rec, n): the call form of a masked pair, direct jumps, dead walks
// and the rare history-dependent continuations. The table marks them
// with bit 7, so one OR of the four looked-up bytes detects an event on
// any lane. Every other masked pair ends in a class-1 state, like a
// plain instruction. Recording states — an accept noted
// mid-instruction while a masked pair is still live — are absorbed
// into the inline path entirely: the accept they would record is
// recovered later from the state bytes, by scanning the current
// instruction's stored states when an event finally needs the earliest
// noCF/direct accept positions.
//
// An event leaves the loop for one helper (laneCatchUp), which resolves
// each eventful lane with laneEvent and, when the resolution rewinds a
// lane, re-walks that lane alone (laneWalk, reading the image itself)
// up to the lockstep position; the loop then resumes all four lanes
// together. laneWalk also walks the last lane's remainder after the
// lockstep loop, and a region of under laneCount bundles (only an
// image's last shard can have one) whole, as a single lane.
//
// Pass 2 turns the state buffer into the instruction-boundary bitmap
// with branch-free SWAR: eight state bytes are range-checked against the
// class-1 band [quiet, nc) per 64-bit load (a class-1 state marks "an
// instruction ended after this byte"), the per-byte results are packed
// into one bit per byte, and the words are OR-ed into the shared valid
// bitmap. The same pass enforces the policy's structural demand
// posteriorly: every bundle boundary in the region (16-, 32- or 64-byte
// bundles, a mask over each word) must carry a boundary bit. If any
// does not — an instruction straddled a bundle boundary, or a lane's
// walk ended mid-instruction at its seam (the region-end rule) — the
// parse reports failure, the dispatcher erases the shard's partial
// writes, and the Figure-5 loop re-parses the shard.
//
// Equivalence argument. When parseShardLanes returns true, its
// boundary bits and collected jump targets are exactly those of the
// Figure-5 loop (parseShardRef) over the same range. The product
// automaton collapses each component to a sink once it accepts or
// rejects (policy.FuseProduct), so on a walk from an instruction start
// a component's accept bit appears at most once, at its earliest
// accept — where the loop's match call for that component succeeds —
// and its live bit holds exactly while that call is still reading.
// laneEvent's stop rule picks among the accepts in the loop's order.
//
//   - Within a lane the walk is the loop's continuous parse. Class-1
//     states resolve instructions inline (their restart-closed rows
//     are the start row, so flowing through one is identical to
//     restarting): in a class-1 state noCF has just accepted and no
//     component is live, so the loop's masked match has failed, its
//     noCF match ends right there, and the loop starts the next
//     instruction at the same offset. A masked pair that is not the
//     call form resolves the same way: the loop takes it outright (top
//     priority) and checks nothing further, and its remapped flat
//     entry is a class-1 state. Recording states never decide the
//     loop's match either (the masked match is still reading), so
//     absorbing them loses nothing; their accept positions are
//     recovered verbatim from the stored state tags when an event
//     resolves by priority. Events apply the loop's priority rule and
//     its policy checks (AlignedCalls, jumpTarget, targetAllowed), or
//     fail the lane parse.
//   - Lanes share only the index, never state: each reads and writes
//     its own part of the state buffer, and laneEvent's recovery scans
//     stop at the lane's start. Walking them in lockstep rather than
//     one after another changes the order of the steps, not their
//     results (the collected jump targets may come out in another
//     order, and stage 2 reads them as a set).
//   - The state buffer holds a lane's states below the lockstep
//     position and its code copy from there on: the loop reads each
//     byte once, at the step that overwrites it, and every other
//     reader of the code (laneWalk, jump-target decoding) reads the
//     image.
//   - A resolution may rewind a lane below the lockstep position. The
//     bytes it re-walks cannot contain a class-1 state (one would
//     itself have resolved the instruction earlier), and laneWalk
//     rewrites every one of them, up to and including the event byte,
//     before the lockstep walk resumes — so no stale state byte
//     survives: not a doomed one from before the rewind, nor the event
//     byte the lockstep loop stored with bit 7 set. Bytes beyond the
//     lockstep position still hold code; the lockstep loop (or, for
//     the remainder, laneWalk) overwrites each of them later, so every
//     byte of the region holds its state by the time pass 2 reads it.
//   - Lane seams are bundle boundaries. The posterior bundle check
//     passing at a seam means the previous lane's walk ended exactly at
//     an instruction boundary, so the next lane starting from the start
//     state is the canonical continuation — inductively the whole range
//     matches the single continuous parse. A lane whose last instruction
//     is still open at its seam (say, a mask whose jump would start the
//     next lane) leaves the seam's bit unset and restarts the shard. A
//     single-lane region has no seams.
//   - Any canonical violation in the range (illegal instruction,
//     misaligned call, bad jump target, bundle straddle) either fails a
//     lane event directly or leaves a bundle boundary bit unset, so it
//     can never be reported here: the Figure-5 loop re-parses the shard
//     and diagnoses it, so reports stay byte-identical, which
//     FuzzFusedEquiv and the fault-injection cross-check enforce.

// laneCount is the interleave width: four independent load chains
// cover most of the L1 latency of the dependent table loads, and four
// states plus four lane bases and the loop's index, bound and table
// still fit in amd64's registers.
const laneCount = 4

// laneEventBit marks a flat-table entry whose target is eventful
// (>= rec); the low 7 bits are the target state.
const laneEventBit = 0x80

// laneCtx is the shared state of one lane parse, stack-allocated by
// parseShardLanes and threaded through the event helpers by pointer.
type laneCtx struct {
	code []byte
	buf  []byte // state byte per parsed byte; index = offset - base
	tags []uint8
	flat *[flatStates * 256]uint8
	pb   *parseBuf
	sc   *scratch
	base int // region-range start (the shard start)
	q    int // lane length; lane k starts at base+k*q
	// Class-1 band test on state bytes: b is class-1 iff b-qb < c1w
	// (unsigned byte arithmetic).
	qb, c1w uint8
	fstart  uint16
	failed  bool
}

// laneEvent handles a walk entering an eventful state s (>= rec) with
// the event byte at absolute offset o-1; rs is the lane's region start.
// It returns the state and absolute offset to continue from; on an
// irregularity it marks the parse failed and returns o.
//
// It applies the stop rule, which decides an instruction the way the
// Figure-5 loop's three match calls do, as soon as the decision is
// determined: a masked accept wins outright; once masked can no longer
// accept, a recorded noCF accept wins; once noCF is out too, a recorded
// direct accept; and a state with nothing live and nothing recorded is
// the illegal case. The recorded accepts come from the state buffer:
// the instruction start is the last class-1 byte before the event (the
// region start if none), and the earliest noCF/direct accept positions
// are read off the stored states' tags. Until the decision is
// determined the walk continues.
func (c *Checker) laneEvent(lc *laneCtx, s uint16, o, rs int) (uint16, int) {
	buf, base, tags := lc.buf, lc.base, lc.tags
	tag := tags[s]
	if tag&tagAccMasked != 0 {
		// Masked pair: top priority, resolves outright at o. The flat
		// table sends every other form straight to a class-1 state, so
		// this is the call form, FF /2 (see fusedDFA.flat).
		if c.AlignedCalls && o%c.params.bundle != 0 {
			lc.failed = true
			return lc.fstart, o
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
				// Dead walk: nothing matched. The Figure-5 loop reports
				// IllegalInstruction here.
				lc.failed = true
				return lc.fstart, o
			}
			if c.AlignedCalls && lc.code[saved] == 0xe8 && pos%c.params.bundle != 0 {
				lc.failed = true
				return lc.fstart, o
			}
			t, ok := jumpTarget(lc.code, saved, pos)
			if !ok {
				lc.failed = true
				return lc.fstart, o
			}
			tAbs := t + int64(lc.sc.base)
			if tAbs >= 0 && tAbs < int64(lc.sc.imgSize) {
				lc.pb.targets = append(lc.pb.targets, int32(t))
			} else if !c.targetAllowed(uint32(tAbs)) {
				lc.failed = true
				return lc.fstart, o
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

// parseShardLanes runs the two-pass parse over the whole-bundle region
// [start, fullEnd), collecting its jump targets in pb: four lanes in
// lockstep when the region has at least laneCount bundles, one lane
// otherwise. It reports whether the region was fully regular; on false
// the caller must discard the shard's bitmap words and pb's targets and
// re-parse with the Figure-5 loop.
func (c *Checker) parseShardLanes(code []byte, start, fullEnd int, sc *scratch, pb *parseBuf) bool {
	f := c.fused
	if f.flat == nil || f.nc == f.quiet {
		return false
	}
	L := fullEnd - start
	// Lane k is [start+k*q, start+(k+1)*q), bundle-aligned; the last
	// lane also owns the remainder up to fullEnd (under laneCount
	// bundles). q is 0 below laneCount bundles: one lane.
	q := L / laneCount / c.params.bundle * c.params.bundle
	lc := laneCtx{
		code:   code,
		buf:    pb.states[:L],
		tags:   f.tags,
		flat:   (*[flatStates * 256]uint8)(f.flat),
		pb:     pb,
		sc:     sc,
		base:   start,
		q:      q,
		qb:     uint8(f.quiet),
		c1w:    uint8(f.nc - f.quiet),
		fstart: uint16(f.start),
	}
	st := uint8(f.start)
	s := [laneCount]uint8{st, st, st, st}
	if q > 0 {
		// The lockstep loop reads each code byte from the state buffer
		// and overwrites it with the byte's state.
		lanes := pb.states[:laneCount*q]
		copy(lanes, code[start:])
		for i := 0; i < q && !lc.failed; i++ {
			// At i == q no byte is marked, and the catch-up is empty.
			i, s[0], s[1], s[2], s[3] = laneLockstep(lc.flat, lanes, q, i, s[0], s[1], s[2], s[3])
			c.laneCatchUp(&lc, i, &s)
		}
	}
	if !lc.failed {
		c.laneWalk(&lc, uint16(s[laneCount-1]), start+laneCount*q, fullEnd, start+(laneCount-1)*q)
	}
	return !lc.failed && c.laneExtract(&pb.states, sc, start, L)
}

// laneLockstep is pass 1's inner loop: lanes holds the code of the four
// lanes, q bytes each, and from index i it steps them (states s0..s3)
// one byte each per iteration, overwriting every byte with the state it
// looked up. It returns at the first step whose looked-up byte has
// laneEventBit set on some lane — that step's index and the four bytes
// as looked up, the eventful ones still marked — or at q. It makes no
// calls, so everything it carries stays in registers.
func laneLockstep(flat *[flatStates * 256]uint8, lanes []byte, q, i int, s0, s1, s2, s3 uint8) (int, uint8, uint8, uint8, uint8) {
	l0 := lanes[:q]
	// Same-length reslices: the loop guard on l0 proves every index.
	l1, l2, l3 := lanes[q:][:len(l0)], lanes[2*q:][:len(l0)], lanes[3*q:][:len(l0)]
	_ = flat[0] // nil check hoisted out of the loop
	for ; uint(i) < uint(len(l0)); i++ {
		s0 = flat[int(s0&127)<<8|int(l0[i])]
		s1 = flat[int(s1&127)<<8|int(l1[i])]
		s2 = flat[int(s2&127)<<8|int(l2[i])]
		s3 = flat[int(s3&127)<<8|int(l3[i])]
		l0[i], l1[i], l2[i], l3[i] = s0, s1, s2, s3
		if (s0|s1|s2|s3)&laneEventBit != 0 {
			break
		}
	}
	return i, s0, s1, s2, s3
}

// laneCatchUp resolves the events of lockstep step i: for each lane
// whose looked-up byte in s is marked eventful, laneEvent decides it,
// and a lane it rewinds is re-walked alone up to the lockstep position
// (the offset after step i). On return every lane stands at that
// position, s holds their states, and the state buffer is written up
// to it; a failed resolution marks lc failed.
func (c *Checker) laneCatchUp(lc *laneCtx, i int, s *[laneCount]uint8) {
	for k, t := range s {
		if t&laneEventBit == 0 {
			continue
		}
		rs := lc.base + k*lc.q
		o := rs + i + 1
		st, p := c.laneEvent(lc, uint16(t&^laneEventBit), o, rs)
		if p < o {
			st = c.laneWalk(lc, st, p, o, rs)
		}
		s[k] = uint8(st)
	}
}

// laneWalk walks one lane from state s over the absolute offsets
// [o, end), storing each state and resolving each event with
// laneEvent; rs is the lane's region start. It returns the state at
// end; a failed resolution marks lc failed and ends the walk. It
// catches a rewound lane up to the lockstep position, walks the last
// lane's remainder, and walks a region under laneCount bundles whole.
func (c *Checker) laneWalk(lc *laneCtx, s uint16, o, end, rs int) uint16 {
	flat, code, buf, base := lc.flat, lc.code, lc.buf, lc.base
	for o < end {
		t := flat[int(s&127)<<8|int(code[o])]
		o++
		if t&laneEventBit == 0 {
			buf[o-1-base] = t
			s = uint16(t)
			continue
		}
		if s, o = c.laneEvent(lc, uint16(t&^laneEventBit), o, rs); lc.failed {
			break
		}
	}
	return s
}

// laneExtract is pass 2: SWAR-extract the boundary bits from the state
// buffer (buf[:L] holds the region's states) into the shared valid
// bitmap and enforce that every bundle boundary in [start, start+L] is
// an instruction boundary. Bit offset start+j+1 is set iff buf[j] is a
// class-1 state (the instruction ended after that byte); bit `start` is
// set unconditionally (the region start is an instruction start by
// construction). The bit for offset start+L belongs to the following
// parse and is only checked (the walk must have ended exactly at an
// instruction boundary), never written.
//
// Each 64-bit bitmap word takes one 64-byte view of buf and eight
// unrolled SWAR steps. The bundle-boundary demand is a per-word mask:
// with bundle size 2^k (16, 32 or 64 here; larger bundles never reach
// the lanes), boundary offsets within a word sit at fixed bit positions
// 0, 2^k, ..., so the pass accumulates the mask bits each word leaves
// unset and checks them once at the end.
func (c *Checker) laneExtract(buf *[ShardBytes]byte, sc *scratch, start, L int) bool {
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
	words := sc.valid.Words()[start/64:][:(L+63)/64] // shard starts are 64-aligned
	carry := uint64(1)
	var miss uint64 // bundle-boundary bits some word left unset
	for w := range words {
		p := (*[64]byte)(buf[w*64:])
		bits := class1Bits(binary.LittleEndian.Uint64(p[0:]), A, B) |
			class1Bits(binary.LittleEndian.Uint64(p[8:]), A, B)<<8 |
			class1Bits(binary.LittleEndian.Uint64(p[16:]), A, B)<<16 |
			class1Bits(binary.LittleEndian.Uint64(p[24:]), A, B)<<24 |
			class1Bits(binary.LittleEndian.Uint64(p[32:]), A, B)<<32 |
			class1Bits(binary.LittleEndian.Uint64(p[40:]), A, B)<<40 |
			class1Bits(binary.LittleEndian.Uint64(p[48:]), A, B)<<48 |
			class1Bits(binary.LittleEndian.Uint64(p[56:]), A, B)<<56
		keep, last := ^uint64(0), 63
		if r := L - w*64; r < 64 {
			// Partial final word: a region shorter than a shard is a
			// multiple of the bundle size, not of 64, so it can end 16,
			// 32 or 48 bytes in. The bytes past L are stale (another
			// parse's states or code, any value); a byte's SWAR carry
			// runs only into higher bytes, so they cannot disturb the
			// region's bits, and every bit they yield is masked off.
			// Bit r is the offset start+L bit, checked via the final
			// carry.
			keep, last = 1<<uint(r)-1, r-1
		}
		v := bits<<1 | carry
		words[w] |= v & keep
		carry = bits >> uint(last) & 1
		miss |= bmask & keep &^ v
	}
	// The walk must have tiled the region exactly: the last byte's state
	// is class-1, i.e. offset start+L is an instruction boundary.
	return miss == 0 && carry == 1
}

// class1Bits packs the class-1 test of eight state bytes (x, little
// endian) into its low eight bits, one per byte; A and B are
// laneExtract's byte-replicated 128-quiet and 128-nc.
func class1Bits(x, A, B uint64) uint64 {
	m := ((x + A) &^ (x + B)) & 0x8080808080808080
	return m >> 7 * 0x0102040810204080 >> 56
}
