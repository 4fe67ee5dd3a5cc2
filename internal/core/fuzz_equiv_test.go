package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
)

// FuzzVerifyParallelEquiv asserts the engine's defining property on
// arbitrary byte strings: the parallel verdict, the canonical first-
// violation offset, and in fact the whole violation list are identical
// to the sequential run's. The streaming verifier is held to the same
// run at the same worker counts, under the streamEqual contract (every
// violation but its Window excerpt) plus the engine-invariant Stats.
// Seeds come from the compliant-image generator (including a
// multi-shard image), the unsafe corpus, and compliant images on the
// streaming window's edges. Run longer with
//
//	go test -fuzz FuzzVerifyParallelEquiv ./internal/core
func FuzzVerifyParallelEquiv(f *testing.F) {
	gen := nacl.NewGenerator(31)
	var tile []byte
	for _, n := range []int{5, 60, 6000} {
		img, err := gen.Random(n)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		tile = img
	}
	for _, img := range nacl.UnsafeCorpus() {
		f.Add(img)
	}
	f.Add([]byte{0x83, 0xe0, 0xe0, 0xff, 0xe0}) // masked pair, short bundle
	f.Add([]byte{0xeb, 0x03, 0xb8, 0, 0, 0, 0}) // jump into an instruction

	c, err := core.NewChecker()
	if err != nil {
		f.Fatal(err)
	}
	for _, img := range streamEdgeSeeds(f, c, tile) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) > 1<<20 {
			t.Skip()
		}
		seq := c.VerifyWith(img, core.VerifyOptions{Workers: 1})
		for _, w := range []int{2, 4, 0} {
			par := c.VerifyWith(img, core.VerifyOptions{Workers: w})
			if par.Safe != seq.Safe {
				t.Fatalf("workers=%d: verdict %v, sequential %v on % x", w, par.Safe, seq.Safe, img)
			}
			if !reflect.DeepEqual(par.Violations, seq.Violations) || par.Total != seq.Total {
				t.Fatalf("workers=%d: violations diverged on % x\nseq: %+v\npar: %+v",
					w, img, seq.Violations, par.Violations)
			}
		}
		for _, w := range []int{1, 2, 4, 0} {
			got, err := c.VerifyReader(bytes.NewReader(img), core.VerifyOptions{StreamSize: int64(len(img)), Workers: w})
			if err != nil {
				t.Fatalf("stream workers=%d: %v", w, err)
			}
			what := fmt.Sprintf("stream workers=%d on %d bytes", w, len(img))
			streamEqual(t, got, seq, what)
			if gs, ss := got.Stats.EngineInvariant(), seq.Stats.EngineInvariant(); gs != ss {
				t.Fatalf("%s: stats diverged\nseq: %+v\nstream: %+v", what, ss, gs)
			}
		}
	})
}

// streamEdgeSeeds builds compliant images whose lengths sit on the
// streaming window's edges (core.StreamSettle and core.StreamWindow) —
// one settled span ± a few bytes, one window + 1, and two settled spans
// and a window, whose last window refills the first buffer — plus a
// settled span with a violation in its last shard. Each is tiles of the
// compliant tile, padded to whole bundles, then NOPs up to the length.
func streamEdgeSeeds(f *testing.F, c *core.Checker, tile []byte) [][]byte {
	tile = append(tile, bytes.Repeat([]byte{0x90}, (-len(tile))&(core.BundleSize-1))...)
	build := func(n int) []byte {
		img := bytes.Repeat(tile, n/len(tile))
		return append(img, bytes.Repeat([]byte{0x90}, n-len(img))...)
	}
	var seeds [][]byte
	for _, n := range []int{streamSettle - 3, streamSettle, streamSettle + 5, streamWindow + 1, 2*streamSettle + streamWindow} {
		img := build(n)
		if !c.Verify(img) {
			f.Fatalf("window-edge seed of %d bytes is not compliant", n)
		}
		seeds = append(seeds, img)
	}
	// int 0x80 at the last bundle of the span's last shard.
	bad := build(streamSettle + 5)
	copy(bad[streamSettle-core.BundleSize:], []byte{0xcd, 0x80})
	if rep := c.VerifyWith(bad, core.VerifyOptions{Workers: 1}); rep.Safe || rep.Violations[0].Offset/core.ShardBytes != streamSettle/core.ShardBytes-1 {
		f.Fatalf("window-edge violation seed misplaced: %+v", rep.Violations)
	}
	return append(seeds, bad)
}

// FuzzFusedEquiv holds the fused engine to the reference three-DFA
// engine on arbitrary byte strings: the default walk (four lanes that
// rewind to the reference loop) must give the same verdict, identical
// violation lists (offset, kind, detail, window — byte for byte), the
// same uncapped total and the same engine-invariant Stats, with and
// without the AlignedCalls extension.
// This is the executable statement that the fusion and the lane
// interleaving are pure performance transformations. Run longer with
//
//	go test -fuzz FuzzFusedEquiv ./internal/core
func FuzzFusedEquiv(f *testing.F) {
	addGeneratedSeeds(f, 47)
	addFusedEdgeSeeds(f)
	fuzzFusedAgainstReference(f)
}

// FuzzByteClassEquiv runs FuzzFusedEquiv's check from a second seed
// set: images from generator seed 53, the same edge inputs, and an
// odd-length input shorter than one bundle. Its name dates from the
// byte-class compacted tables, which went with the byte-pair tables;
// the seeds still reach the lanes' rewind and the short-input path. Run longer with
//
//	go test -fuzz FuzzByteClassEquiv ./internal/core
func FuzzByteClassEquiv(f *testing.F) {
	addGeneratedSeeds(f, 53)
	addFusedEdgeSeeds(f)
	f.Add([]byte{0x90}) // odd length: shorter than one bundle
	fuzzFusedAgainstReference(f)
}

// addGeneratedSeeds adds three generated compliant images (5, 60 and
// 6,000 instructions) drawn from seed.
func addGeneratedSeeds(f *testing.F, seed int64) {
	gen := nacl.NewGenerator(seed)
	for _, n := range []int{5, 60, 6000} {
		img, err := gen.Random(n)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
}

// addFusedEdgeSeeds adds the unsafe corpus, three short inputs that
// end mid-bundle, jump into an instruction, or depend on AlignedCalls,
// and the masked-call images the lanes walk.
func addFusedEdgeSeeds(f *testing.F) {
	for _, img := range nacl.UnsafeCorpus() {
		f.Add(img)
	}
	f.Add([]byte{0x83, 0xe0, 0xe0, 0xff, 0xe0}) // masked pair, short bundle
	f.Add([]byte{0xeb, 0x03, 0xb8, 0, 0, 0, 0}) // jump into an instruction
	f.Add([]byte{0xe8, 0, 0, 0, 0})             // call (AlignedCalls-sensitive)
	for _, off := range maskedCallOffsets {
		f.Add(maskedCallImage(256, off))
	}
	for _, r := range directJumpRows {
		f.Add(r.image())
	}
}

// directJumpRow is a direct jump placed at off in a size-byte NOP
// image, the checker settings it is verified under, and the verdict and
// lane restart expected. The lanes end a direct jump in the flat-only
// state D and pass 2 applies its checks, so the rows sit on pass 2's
// seams. TestLaneMaskedCalls checks each row; the fused-engine fuzzers
// take each image as a seed.
type directJumpRow struct {
	what          string
	size, off     int
	pat           []byte
	reins         bool     // REINS-16 (a 64 KiB guard region), not NaCl-32
	entries       []uint32 // whitelisted out-of-image targets
	aligned       bool     // AlignedCalls
	safe, restart bool
}

func (r directJumpRow) image() []byte {
	img := bytes.Repeat([]byte{0x90}, r.size)
	copy(img[r.off:], r.pat)
	return img
}

// rel32 is the five-byte direct jump or call op at off reaching target.
func rel32(op byte, off, target int) []byte {
	return binary.LittleEndian.AppendUint32([]byte{op}, uint32(target-(off+5)))
}

// directJumpRows: a jump ending on a lane seam and one starting a lane
// (its start is the word's first bit, carried from the previous word),
// in a full shard (four 4 KiB lanes) and in 256 bytes (four 64-byte
// lanes); a rel32 jump across a 64-byte word, whose start lies in the
// previous word (a word edge is a bundle boundary, so the region fails
// and the reference loop reports the straddle); a jump in an image's
// trailing partial bundle, which the loop parses after the lanes, and
// one ending the lanes' region in a partial final word; out-of-image
// targets, one whitelisted in Entries, one not, and one whitelisted in
// REINS's guard region; and a call under AlignedCalls ending off and on
// the bundle grid.
var directJumpRows = []directJumpRow{
	{what: "jmp rel8 ending on a lane seam", size: core.ShardBytes, off: core.ShardBytes/4 - 2, pat: []byte{0xeb, 0x00}, safe: true},
	{what: "jmp rel8 ending on a lane seam", size: 256, off: 62, pat: []byte{0xeb, 0x00}, safe: true},
	{what: "jmp rel8 starting a lane", size: core.ShardBytes, off: core.ShardBytes / 4, pat: []byte{0xeb, 0x00}, safe: true},
	{what: "jmp rel8 starting a lane", size: 256, off: 128, pat: []byte{0xeb, 0xfe}, safe: true},
	{what: "jmp rel32 across a 64-byte word", size: core.ShardBytes, off: 126, pat: rel32(0xe9, 126, 0), restart: true},
	{what: "jmp rel8 in the trailing partial bundle", size: 9*core.BundleSize + 7, off: 9*core.BundleSize + 1, pat: []byte{0xeb, 0x02}, safe: true},
	// A shard of jumps leaves D states throughout the pooled state
	// buffer; the next row's region ends 32 bytes into its last word,
	// over those stale states.
	{what: "jmp rel8 filling a shard", size: core.ShardBytes, pat: bytes.Repeat([]byte{0xeb, 0x00}, core.ShardBytes/2-1), safe: true},
	{what: "jmp rel8 ending the lanes in a partial final word", size: 9*core.BundleSize + 7, off: 9*core.BundleSize - 2, pat: []byte{0xeb, 0x00}, safe: true},
	{what: "jmp rel32 to a whitelisted entry", size: 256, off: 100, pat: rel32(0xe9, 100, 0x20000), entries: []uint32{0x20000}, safe: true},
	{what: "jmp rel32 to an entry not whitelisted", size: 256, off: 100, pat: rel32(0xe9, 100, 0x30000), entries: []uint32{0x20000}, restart: true},
	{what: "jmp rel32 to a whitelisted entry in the guard region", size: 256, off: 100, pat: rel32(0xe9, 100, 0x8000), reins: true, entries: []uint32{0x8000}, restart: true},
	{what: "call rel32 ending off the bundle grid", size: 256, off: 100, pat: rel32(0xe8, 100, 0), aligned: true, restart: true},
	{what: "call rel32 ending on the bundle grid", size: 256, off: 123, pat: rel32(0xe8, 123, 0), aligned: true, safe: true},
}

// maskedCallOffsets place a masked call in a 256-byte image, which the
// lanes walk as four 64-byte lanes, so that it ends off a bundle
// boundary, on one, and off one in the second lane.
var maskedCallOffsets = []int{0, 27, 100}

// maskedCall is 83 e0 e0 ff d0 (and eax, -32; call eax): the one
// masked-pair form whose lane walk stops for a policy check, since
// AlignedCalls demands it end on a bundle boundary.
var maskedCall = []byte{0x83, 0xe0, 0xe0, 0xff, 0xd0}

// maskedCallImage is an n-byte NOP image with maskedCall at off.
func maskedCallImage(n, off int) []byte {
	img := bytes.Repeat([]byte{0x90}, n)
	copy(img[off:], maskedCall)
	return img
}

// laneFrameBytes is the size of the NOP frame embedInFrame places an
// input in: 33 NaCl-32 bundles (66 of 16 bytes), which the lanes walk
// as four 256-byte quarters in lockstep, the last followed by a
// 32-byte remainder that lane walks alone.
const laneFrameBytes = 1056

// laneFrameOffset is where embedInFrame places an input: on a 64-byte
// boundary (a bundle boundary under every shipped policy) 128 bytes —
// four NaCl-32 bundles — before the first lane seam, so any input
// longer than that crosses the seam.
const laneFrameOffset = 128

// embedInFrame returns the NOP frame with img copied in at
// laneFrameOffset, or nil if img does not fit. Most fuzz inputs are
// shorter than four bundles, which the lanes walk as one lane;
// embedded, each of them runs through the four-lane lockstep walk,
// its seams, its rewinds and its remainder. A longer input already
// runs four lanes as given, and the frame stays small, because every
// engine walks all of it for every input.
func embedInFrame(img []byte) []byte {
	if len(img) > laneFrameBytes-laneFrameOffset {
		return nil
	}
	frame := bytes.Repeat([]byte{0x90}, laneFrameBytes)
	copy(frame[laneFrameOffset:], img)
	return frame
}

// fuzzFusedAgainstReference is the check FuzzFusedEquiv and
// FuzzByteClassEquiv share: the fused engine against EngineReference,
// plain and with AlignedCalls, on the input and on the input embedded
// in a NOP frame.
func fuzzFusedAgainstReference(f *testing.F) {
	plain, err := core.NewChecker()
	if err != nil {
		f.Fatal(err)
	}
	aligned, err := core.NewChecker()
	if err != nil {
		f.Fatal(err)
	}
	aligned.AlignedCalls = true
	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) > 1<<20 {
			t.Skip()
		}
		for _, c := range []*core.Checker{plain, aligned} {
			for _, embed := range []bool{false, true} {
				engineEquiv(t, c, img, embed, fmt.Sprintf("alignedCalls=%v", c.AlignedCalls))
			}
		}
	})
}

// engineEquiv holds the default fused engine to EngineReference under
// c on the input in, or with embed on the input embedded in a NOP
// frame (embedInFrame; nothing to check if it does not fit): the same
// verdict, identical violation lists (offset, kind, detail, window),
// the same uncapped total and the same engine-invariant Stats.
// Failures print in, not the frame.
func engineEquiv(t *testing.T, c *core.Checker, in []byte, embed bool, what string) {
	t.Helper()
	img := in
	if embed {
		if img = embedInFrame(in); img == nil {
			return
		}
		what += fmt.Sprintf(" embedded at offset %d of a %d-byte NOP frame", laneFrameOffset, laneFrameBytes)
	}
	ref := c.VerifyWith(img, core.VerifyOptions{Workers: 1, Engine: core.EngineReference})
	got := c.VerifyWith(img, core.VerifyOptions{Workers: 1})
	if got.Safe != ref.Safe {
		t.Fatalf("%s: verdict %v, reference %v on % x", what, got.Safe, ref.Safe, in)
	}
	if !reflect.DeepEqual(got.Violations, ref.Violations) || got.Total != ref.Total {
		t.Fatalf("%s: reports diverged on % x\nref: %+v\ngot: %+v",
			what, in, ref.Violations, got.Violations)
	}
	// The engine-invariant Stats subset (bytes, bundles, instruction
	// boundaries, per-kind census) must match too: the fused engine may
	// take a different route through the bytes, but it must conclude
	// exactly the same facts.
	if gs, rs := got.Stats.EngineInvariant(), ref.Stats.EngineInvariant(); gs != rs {
		t.Fatalf("%s: stats diverged on % x\nref: %+v\ngot: %+v", what, in, rs, gs)
	}
}
