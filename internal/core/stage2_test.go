package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"rocksalt/internal/core"
)

// TestCrossShardTargetVerdict holds stage 2's jump-target check to an
// expected verdict, not to another path through the same reconcile.
// Each image is NOPs with a 5-byte mov eax, imm32 at a fixed target and
// a jmp rel32 from another shard that lands on it:
//   - one byte inside the mov: exactly one TargetNotBoundary, at the
//     target;
//   - on the mov's start: safe;
//   - a second jump, from a third shard, to the same bad target: still
//     one violation, Total 1.
//
// The target sits in shard 3 of eight, in the last of eight, and in a
// short final shard; and, on an image of three stream windows, past two
// window seams from a jump in the first window, and in the first window
// from a jump two seams later (the second jump crosses one seam either
// way).
//
// Every case runs through Verify, VerifyWith at one and two workers and
// under the reference loop, VerifyReader at one and two workers, and
// VerifyDelta: a first round, then two same-size rounds that move the
// mov to its other position and back. Those rounds edit only the chunk
// that holds the target, so every other chunk replays, with the
// retained targets of the jumps outside it.
func TestCrossShardTargetVerdict(t *testing.T) {
	c := checker(t)
	// A mov at at(s)-1 (a bundle start) or at at(s) stays inside one
	// bundle, and so does a jump at each source below.
	at := func(shard int) int { return shard*core.ShardBytes + 65 }
	settled := core.StreamSettle / core.ShardBytes
	eight := 8 * core.ShardBytes
	windows := 2*core.StreamSettle + core.StreamWindow
	geometries := []struct {
		name      string
		size, tgt int
		srcs      []int
	}{
		{"shard 3 of 8", eight, at(3), []int{100, 5*core.ShardBytes + 200}},
		{"last shard", eight, at(7), []int{100, 5*core.ShardBytes + 200}},
		{"short final shard", 7*core.ShardBytes + 4103, at(7), []int{100, 5*core.ShardBytes + 200}},
		{"forward across window seams", windows, at(2*settled + 1), []int{100, settled*core.ShardBytes + 200}},
		{"backward across window seams", windows, at(1), []int{2*settled*core.ShardBytes + 300, settled*core.ShardBytes + 200}},
	}
	for _, tc := range []struct {
		name  string
		mov   int // the mov's offset from the target
		jumps int
	}{
		{"inside", -1, 1},
		{"start", 0, 1},
		{"shared", -1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, g := range geometries {
				t.Run(g.name, func(t *testing.T) {
					crossShardCase(t, c, g.size, g.tgt, g.tgt+tc.mov, g.srcs[:tc.jumps])
				})
			}
		})
	}
}

// crossShardCase is one TestCrossShardTargetVerdict image: size bytes of
// NOPs, the mov at movAt and a jump from each of srcs to tgt.
func crossShardCase(t *testing.T, c *core.Checker, size, tgt, movAt int, srcs []int) {
	want := func(t *testing.T, what string, rep *core.Report, bad bool) {
		t.Helper()
		if !bad {
			if !rep.Safe || rep.Total != 0 || len(rep.Violations) != 0 {
				t.Errorf("%s: want safe, got safe=%v total=%d %+v", what, rep.Safe, rep.Total, rep.Violations)
			}
			return
		}
		if rep.Safe || rep.Total != 1 || len(rep.Violations) != 1 ||
			rep.Violations[0].Kind != core.TargetNotBoundary || rep.Violations[0].Offset != tgt {
			t.Errorf("%s: want one TargetNotBoundary at %#x, got safe=%v total=%d %+v",
				what, tgt, rep.Safe, rep.Total, rep.Violations)
		}
	}
	img := bytes.Repeat([]byte{0x90}, size)
	img[movAt] = 0xb8 // mov eax, imm32 (its immediate is NOP bytes)
	for _, src := range srcs {
		if src/core.ShardBytes == tgt/core.ShardBytes {
			t.Fatalf("jump at %#x shares the target's shard", src)
		}
		img[src] = 0xe9 // jmp rel32
		binary.LittleEndian.PutUint32(img[src+1:], uint32(int32(tgt-(src+5))))
	}
	bad := movAt != tgt

	if got := c.Verify(img); got == bad {
		t.Errorf("Verify = %v, want %v", got, !bad)
	}
	for _, o := range []struct {
		name string
		opts core.VerifyOptions
	}{
		{"VerifyWith 1 worker", core.VerifyOptions{Workers: 1}},
		{"VerifyWith 2 workers", core.VerifyOptions{Workers: 2}},
		{"VerifyWith reference", core.VerifyOptions{Workers: 1, Engine: core.EngineReference}},
	} {
		want(t, o.name, c.VerifyWith(img, o.opts), bad)
	}
	for _, w := range []int{1, 2} {
		rep, err := c.VerifyReader(bytes.NewReader(img), core.VerifyOptions{StreamSize: int64(len(img)), Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		want(t, fmt.Sprintf("VerifyReader %d workers", w), rep, bad)
	}

	rep, state, err := c.VerifyDelta(img, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want(t, "VerifyDelta first round", rep, bad)
	chunks := int64((len(img) + deltaChunk - 1) / deltaChunk)
	for round := 2; round <= 3; round++ {
		img[tgt-1], img[tgt] = img[tgt], img[tgt-1]
		bad = !bad
		rep, state, err = c.VerifyDelta(img, []core.Range{{Off: tgt - 1, Len: 2}}, state)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("VerifyDelta round %d", round)
		want(t, what, rep, bad)
		if rep.Stats.DeltaChunksReparsed != 1 || rep.Stats.DeltaChunksReplayed != chunks-1 {
			t.Errorf("%s re-parsed %d chunks and replayed %d, want 1 and %d",
				what, rep.Stats.DeltaChunksReparsed, rep.Stats.DeltaChunksReplayed, chunks-1)
		}
	}
}
