package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// putJmp32 writes a jmp rel32 at off in img that lands on to.
func putJmp32(img []byte, off, to int) {
	img[off] = 0xe9
	binary.LittleEndian.PutUint32(img[off+1:], uint32(int32(to-(off+5))))
}

// summaryTile is one shard of NOPs whose two jumps, a jmp rel8 and a
// jmp rel32, land inside it.
func summaryTile() []byte {
	t := bytes.Repeat([]byte{0x90}, ShardBytes)
	t[0], t[1] = 0xeb, 0x10
	putJmp32(t, 64, 1000)
	return t
}

// TestShardSummary pins the stage-2 summary byte a delta state keeps
// per shard, and that reconcile, reading only the flagged shards, still
// reports what a full verify does. The image tiles one shard whose
// jumps stay in it, so the lanes prove every full shard and nothing is
// flagged but the short final shard; a planted cross-shard jump flags
// exactly its shard, and an edit on the target side, which replays
// that shard, is caught through its retained target. Every round is
// also held to VerifyWith and to a VerifyReader stream.
func TestShardSummary(t *testing.T) {
	c, err := NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	full := 5 * chunkShards
	img := append(bytes.Repeat(summaryTile(), full), bytes.Repeat([]byte{0x90}, 1000)...)
	opts := VerifyOptions{Workers: 1}
	var st *DeltaState
	round := func(changed []Range, what string, flagged ...int) *Report {
		t.Helper()
		rep, next, err := c.VerifyDeltaWith(img, changed, st, opts)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		st = next
		want := c.VerifyWith(img, opts)
		if rep.Safe != want.Safe || rep.Total != want.Total || !reflect.DeepEqual(rep.Violations, want.Violations) ||
			rep.Stats.Instructions != want.Stats.Instructions {
			t.Fatalf("%s: delta round {safe %v total %d insns %d %+v}, full verify {safe %v total %d insns %d %+v}", what,
				rep.Safe, rep.Total, rep.Stats.Instructions, rep.Violations, want.Safe, want.Total, want.Stats.Instructions, want.Violations)
		}
		// A stream reconciles a harvested copy of the same summaries; its
		// stage-2 violations carry no byte window.
		srep, err := c.VerifyReader(bytes.NewReader(img), VerifyOptions{Workers: 1, StreamSize: int64(len(img))})
		if err != nil {
			t.Fatalf("%s: stream: %v", what, err)
		}
		if srep.Safe != want.Safe || srep.Total != want.Total || srep.Stats.Instructions != want.Stats.Instructions ||
			len(srep.Violations) != len(want.Violations) {
			t.Fatalf("%s: stream {safe %v total %d insns %d}, full verify {safe %v total %d insns %d}", what,
				srep.Safe, srep.Total, srep.Stats.Instructions, want.Safe, want.Total, want.Stats.Instructions)
		}
		for i, v := range srep.Violations {
			if v.Offset != want.Violations[i].Offset || v.Kind != want.Violations[i].Kind {
				t.Fatalf("%s: stream violation %d is %+v, full verify's %+v", what, i, v, want.Violations[i])
			}
		}
		if got := st.sc.flaggedShards(); !slices.Equal(got, flagged) {
			t.Fatalf("%s: flagged shards %v, want %v", what, got, flagged)
		}
		return rep
	}

	round(nil, "first round", full)
	for s := 0; s < full; s++ {
		if !st.sc.results[s].lane {
			t.Fatalf("shard %d was not proved by the lanes", s)
		}
	}
	round([]Range{{Off: 2*chunkBytes + 500, Len: 4096}}, "same-size round", full)

	// A jump from shard 5 (chunk 1) to shard 13 (chunk 3).
	src, tgt := 5*ShardBytes+200, 13*ShardBytes+300
	putJmp32(img, src, tgt)
	round([]Range{{Off: src, Len: 5}}, "planted cross-shard jump", 5, full)

	// A mov eax, imm32 over [tgt-2, tgt+3) moves the target inside an
	// instruction; only the target's chunk re-parses.
	img[tgt-2] = 0xb8
	rep := round([]Range{{Off: tgt - 2, Len: 1}}, "target moved off a boundary", 5, full)
	if rep.Stats.DeltaChunksReparsed != 1 {
		t.Fatalf("target-side edit re-parsed %d chunks, want only the target's", rep.Stats.DeltaChunksReparsed)
	}
	if rep.Safe || rep.Violations[0].Kind != TargetNotBoundary || rep.Violations[0].Offset != tgt {
		t.Fatalf("target-side edit: want a TargetNotBoundary at %#x, got %+v", tgt, rep.Violations)
	}

	img[tgt-2] = 0x90
	round([]Range{{Off: tgt - 2, Len: 1}}, "target edit reverted", 5, full)
	copy(img[src:src+5], bytes.Repeat([]byte{0x90}, 5))
	round([]Range{{Off: src, Len: 5}}, "jump reverted", full)
}

// TestFlaggedShards holds the word-at-a-time scan to a byte loop on
// every length up to three words and a tail.
func TestFlaggedShards(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sc scratch
	for n := 0; n <= 29; n++ {
		for trial := 0; trial < 64; trial++ {
			sc.check = sc.check[:0]
			var want []int
			for i := 0; i < n; i++ {
				b := byte(rng.Intn(2))
				sc.check = append(sc.check, b)
				if b != 0 {
					want = append(want, i)
				}
			}
			if got := sc.flaggedShards(); !slices.Equal(got, want) {
				t.Fatalf("flags %v: scanned %v, want %v", sc.check, got, want)
			}
		}
	}
}
