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
// The image is eight shards of NOPs with a 5-byte mov eax, imm32 in
// shard 3 and a jmp rel32 in shard 0 that lands on a fixed target:
//   - one byte inside the mov: exactly one TargetNotBoundary, at the
//     target;
//   - on the mov's start: safe;
//   - a second jump, from shard 5, to the same bad target: still one
//     violation, Total 1.
//
// Every case runs through Verify, VerifyWith at one and two workers and
// under the reference loop, VerifyReader, and VerifyDelta: a first
// round, then two same-size rounds that move the mov to its other
// position and back. Those rounds edit only chunk 0, which holds the
// target (and the first jump), so chunk 1 replays, with the second
// jump's retained target in the shared case.
func TestCrossShardTargetVerdict(t *testing.T) {
	c := checker(t)
	const shards = 8
	// A mov at tgt-1 (a bundle start) or at tgt stays inside one bundle.
	tgt := 3*core.ShardBytes + 65
	srcs := []int{100, 5*core.ShardBytes + 200}

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

	for _, tc := range []struct {
		name  string
		movAt int
		jumps int
	}{
		{"inside", tgt - 1, 1},
		{"start", tgt, 1},
		{"shared", tgt - 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := bytes.Repeat([]byte{0x90}, shards*core.ShardBytes)
			img[tc.movAt] = 0xb8 // mov eax, imm32 (its immediate is NOP bytes)
			for _, src := range srcs[:tc.jumps] {
				img[src] = 0xe9 // jmp rel32
				binary.LittleEndian.PutUint32(img[src+1:], uint32(int32(tgt-(src+5))))
			}
			bad := tc.movAt != tgt

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
			rep, err := c.VerifyReader(bytes.NewReader(img), core.VerifyOptions{StreamSize: int64(len(img))})
			if err != nil {
				t.Fatal(err)
			}
			want(t, "VerifyReader", rep, bad)

			rep, state, err := c.VerifyDelta(img, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want(t, "VerifyDelta first round", rep, bad)
			for round := 2; round <= 3; round++ {
				img[tgt-1], img[tgt] = img[tgt], img[tgt-1]
				bad = !bad
				rep, state, err = c.VerifyDelta(img, []core.Range{{Off: tgt - 1, Len: 2}}, state)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("VerifyDelta round %d", round)
				want(t, what, rep, bad)
				if rep.Stats.DeltaChunksReparsed != 1 || rep.Stats.DeltaChunksReplayed != 1 {
					t.Errorf("%s re-parsed %d chunks and replayed %d, want 1 and 1",
						what, rep.Stats.DeltaChunksReparsed, rep.Stats.DeltaChunksReplayed)
				}
			}
		})
	}
}
