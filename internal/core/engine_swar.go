package core

import "encoding/binary"

// This file is the SWAR multi-byte stepper: the second generation of the
// fused hot path, layered on the same two-pass lane machinery as
// engine_lanes.go (pass-1 state buffer, laneEvent recovery, laneExtract
// boundary extraction), with only the pass-1 inner step replaced.
//
// Per lane and per round, the stepper loads 8 input bytes with one
// uint64 load, translates adjacent byte pairs to pair classes through
// the 64K-entry pcls map (fused_stride.go) and chains four byte-pair
// walk entries:
//
//	x  := le64(code[i:])
//	v0 := walk[s  <<12 | pcls[x&0xffff]]
//	v1 := walk[v0>>8<<12 | pcls[x>>16&0xffff]]   ... v2, v3
//
// In the common case — no eventful state in the 8 bytes — the four
// entries' high bits are all clear, the packed state bytes are stored
// with a single 8-byte write, and the lane retires 8 bytes having taken
// exactly two branches (the OR-ed sentinel tests, one per chain half).
// Each walk entry *is* the two state bytes the single-stride walk would
// have stored (fused_stride.go), so the state buffer — and with it pass
// 2, every recovery scan, and the final report — is byte-identical to
// the single-stride lanes by construction.
//
// The sentinel test is split after the second pair on purpose: with a
// jump-dense image a quarter or more of the rounds contain an event,
// and testing v0|v1 before computing v2, v3 skips the second half of
// the dependent load chain — the most expensive work of the round —
// whenever the event sits in the first half. On clean rounds the extra
// test is one predicted-not-taken branch.
//
// Why an 8-byte load cannot skip an event: a walk entry is the eventful
// sentinel iff *either* of its two composed steps leaves the inline
// bands [0, rec) — bundle-relevant accepts, masked-pair resolutions,
// direct jumps and dead walks are all eventful states, so any event
// inside the 8 bytes poisons the entry that covers it, the OR test
// fires, and the lane re-walks from the event's pair boundary: the
// clean entries before the first sentinel are banked (they are exactly
// the single-stride stores), then one single-byte flat step re-discovers
// the event at the right byte and hands it to laneEvent unchanged. The
// guard and bundle checks themselves live in laneEvent/laneExtract,
// shared verbatim with the single-stride lanes, so no policy decision is
// duplicated here. FuzzByteClassEquiv and FuzzPolicyEquiv hold the
// engine byte-identical to EngineReference.

// swarLanes is the SWAR stepper's interleave width (see the region
// comment in parseShardSWAR for why it is two, not laneCount).
const swarLanes = 2

// Density backoff. Multi-byte rounds win only while events are sparse:
// a sentinel round discards most of its chained work, so on jump-dense
// code the 8-byte stepper measures slower than the four-lane
// single-stride walk (whose flat table is also far kinder to the cache
// than the pair-class walk). The stepper therefore counts sentinel
// rounds and, once a shard has proven dense — at least swarDenseFloor
// sentinels and more than one per 2^swarDenseShift parsed bytes —
// abandons the shard with dense=true; the dispatcher erases the
// probe's writes and re-parses the shard with parseShardLanes. The
// probe is cheap (the floor is hit within the first few hundred bytes
// of a dense shard), so a dense shard runs within a few percent of the
// plain lane walk, while quiet shards keep the full multi-byte gain —
// which is what lets the default engine select the SWAR stepper
// without ever picking a slower walk. The measured crossover sits near
// one sentinel per ~48 bytes; the 2^6 = 64-byte threshold backs off
// only when the multi-byte rounds are clearly losing, and the floor
// keeps a few early events in a quiet shard from triggering it.
const (
	swarDenseFloor = 8
	swarDenseShift = 6
)

// parseShardSWAR runs the interleaved two-pass parse over the
// whole-bundle region [start, fullEnd) with the SWAR stepper. ok
// reports whether the region was fully regular; on ok=false the caller
// must discard the shard's bitmap/result writes and re-parse — with
// the four-lane single-stride walk when dense is set (the density
// backoff above fired), with the scalar loop otherwise. The caller
// guarantees at least laneCount bundles in the region.
func (c *Checker) parseShardSWAR(code []byte, start, fullEnd int, sc *scratch, res *shardResult) (ok, dense bool) {
	f := c.fused
	if f.stride == nil || f.nc == f.quiet {
		return false, false
	}
	flat := (*[flatStates * 256]uint16)(f.flat)
	walk := (*[flatStates << strideShift]uint16)(f.stride.walk)
	pcls := (*[1 << 16]uint16)(f.stride.pcls)
	rec := uint16(f.rec)
	L := fullEnd - start
	bp := stbufPool.Get().(*[]byte)
	defer stbufPool.Put(bp)
	buf := (*bp)[:L]

	lc := laneCtx{
		code:   code,
		buf:    buf,
		tags:   f.tags,
		res:    res,
		sc:     sc,
		base:   start,
		qb:     uint8(f.quiet),
		c1w:    uint8(f.nc - f.quiet),
		fstart: uint16(f.start),
	}

	// Two contiguous bundle-aligned regions; the second takes the
	// remainder. Two lanes, not four: a SWAR round is itself a chain of
	// four dependent walk loads, so two interleaved chains already cover
	// the load latency, and the smaller live set (two lanes of
	// {index, state, slices} plus three table pointers) fits the amd64
	// register file — four SWAR lanes spill to the stack and run slower.
	bundle := c.params.bundle
	q := L / swarLanes / bundle * bundle
	st0, st1 := start, start+q
	en0, en1 := st1, fullEnd
	li0, li1 := code[st0:en0], code[st1:en1]
	sb0 := buf[st0-start : en0-start]
	sb1 := buf[st1-start : en1-start]
	// Same-length reslices: the loop guard on sb then proves the li
	// index in bounds too.
	sb0, sb1 = sb0[:len(li0)], sb1[:len(li1)]
	var i0, i1, sent int
	s0, s1 := lc.fstart, lc.fstart

	for i0 < len(sb0) || i1 < len(sb1) {
		if i0 < len(sb0) {
			if i0+8 <= len(sb0) {
				x := binary.LittleEndian.Uint64(li0[i0:])
				v0 := walk[int(s0&127)<<strideShift|int(pcls[uint16(x)])&(stridePairCap-1)]
				v1 := walk[int(v0>>8&127)<<strideShift|int(pcls[uint16(x>>16)])&(stridePairCap-1)]
				if v0|v1 < 0x8000 {
					v2 := walk[int(v1>>8&127)<<strideShift|int(pcls[uint16(x>>32)])&(stridePairCap-1)]
					v3 := walk[int(v2>>8&127)<<strideShift|int(pcls[uint16(x>>48)])&(stridePairCap-1)]
					if v2|v3 < 0x8000 {
						binary.LittleEndian.PutUint64(sb0[i0:],
							uint64(v0)|uint64(v1)<<16|uint64(v2)<<32|uint64(v3)<<48)
						s0 = v3 >> 8
						i0 += 8
						goto lane1
					}
					// Sentinel in the second half: bank the clean prefix
					// (exactly the single-stride stores), then fall through
					// to the flat step that re-discovers the event.
					sent++
					if sent >= swarDenseFloor && sent > (i0+i1)>>swarDenseShift {
						return false, true
					}
					binary.LittleEndian.PutUint32(sb0[i0:], uint32(v0)|uint32(v1)<<16)
					s0, i0 = v1>>8, i0+4
					if v2 < 0x8000 {
						sb0[i0], sb0[i0+1] = byte(v2), byte(v2>>8)
						s0, i0 = v2>>8, i0+2
					}
				} else {
					// Sentinel in the first half; v2, v3 were never computed.
					sent++
					if sent >= swarDenseFloor && sent > (i0+i1)>>swarDenseShift {
						return false, true
					}
					if v0 < 0x8000 {
						sb0[i0], sb0[i0+1] = byte(v0), byte(v0>>8)
						s0, i0 = v0>>8, i0+2
					}
				}
			}
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
	lane1:
		if i1 < len(sb1) {
			if i1+8 <= len(sb1) {
				x := binary.LittleEndian.Uint64(li1[i1:])
				v0 := walk[int(s1&127)<<strideShift|int(pcls[uint16(x)])&(stridePairCap-1)]
				v1 := walk[int(v0>>8&127)<<strideShift|int(pcls[uint16(x>>16)])&(stridePairCap-1)]
				if v0|v1 < 0x8000 {
					v2 := walk[int(v1>>8&127)<<strideShift|int(pcls[uint16(x>>32)])&(stridePairCap-1)]
					v3 := walk[int(v2>>8&127)<<strideShift|int(pcls[uint16(x>>48)])&(stridePairCap-1)]
					if v2|v3 < 0x8000 {
						binary.LittleEndian.PutUint64(sb1[i1:],
							uint64(v0)|uint64(v1)<<16|uint64(v2)<<32|uint64(v3)<<48)
						s1 = v3 >> 8
						i1 += 8
						continue
					}
					sent++
					if sent >= swarDenseFloor && sent > (i0+i1)>>swarDenseShift {
						return false, true
					}
					binary.LittleEndian.PutUint32(sb1[i1:], uint32(v0)|uint32(v1)<<16)
					s1, i1 = v1>>8, i1+4
					if v2 < 0x8000 {
						sb1[i1], sb1[i1+1] = byte(v2), byte(v2>>8)
						s1, i1 = v2>>8, i1+2
					}
				} else {
					sent++
					if sent >= swarDenseFloor && sent > (i0+i1)>>swarDenseShift {
						return false, true
					}
					if v0 < 0x8000 {
						sb1[i1], sb1[i1+1] = byte(v0), byte(v0>>8)
						s1, i1 = v0>>8, i1+2
					}
				}
			}
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
	}
	if lc.failed {
		return false, false
	}
	return c.laneExtract(buf, sc, start, L), false
}
