package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/policy"
)

// deltaRoundEqual asserts a delta round's report is byte-identical to
// a from-scratch verify of the same image: verdict, the full sorted
// violation list (offsets, kinds, windows, details), geometry, and the
// engine-invariant stats (modulo the delta reuse counters, which only
// a delta round reports).
func deltaRoundEqual(t *testing.T, got, want *core.Report, what string) {
	t.Helper()
	if got.Safe != want.Safe || got.Outcome != want.Outcome || got.Total != want.Total ||
		got.Size != want.Size || got.Shards != want.Shards {
		t.Fatalf("%s: verdict differs: got {safe %v %v total %d size %d} want {safe %v %v total %d size %d}",
			what, got.Safe, got.Outcome, got.Total, got.Size, want.Safe, want.Outcome, want.Total, want.Size)
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Fatalf("%s: violations differ\ndelta: %+v\nfull:  %+v", what, got.Violations, want.Violations)
	}
	gs, ws := got.Stats.EngineInvariant(), want.Stats.EngineInvariant()
	gs.DeltaChunksReparsed, gs.DeltaChunksReplayed, gs.DeltaBytesReparsed = 0, 0, 0
	if gs != ws {
		t.Fatalf("%s: stats diverged\ndelta: %+v\nfull:  %+v", what, gs, ws)
	}
}

// FuzzDeltaEquiv is the incremental verifier's soundness property: an
// arbitrary edit script applied round by round through VerifyDelta —
// overwrites, inserts, appends, truncations, edits straddling chunk
// boundaries — must leave every round's report byte-identical to a
// cold full verify of the image at that point, for all three shipped
// policies. The state is threaded across rounds, so staleness in any
// retained artifact (bitmap words, banked targets, clean bits, the
// size-change rules) surfaces as a diverging verdict. Run longer with
//
//	go test -fuzz FuzzDeltaEquiv ./internal/core
func FuzzDeltaEquiv(f *testing.F) {
	checkers, err := fuzzPolicies()
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: multi-chunk compliant images per policy (so replay has
	// retained chunks to reuse), the unsafe corpus, and scripts that
	// overwrite, grow across a chunk boundary, and shrink.
	for i, spec := range []policy.Spec{policy.NaCl(), policy.NaCl16(), policy.REINS()} {
		com, err := policy.Compile(spec)
		if err != nil {
			f.Fatal(err)
		}
		prof, err := nacl.ProfileForSpec(com.Spec)
		if err != nil {
			f.Fatal(err)
		}
		img, err := nacl.NewGeneratorFor(int64(31+i), prof, com.SafeGrammar).Random(40000)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img, []byte{0x00, 0x80, 0x00, 0x20, 0x90, 0x01, 0xff, 0xff, 0x10, 0xe9})
	}
	for _, img := range nacl.UnsafeCorpus() {
		f.Add(img, []byte{0x02, 0x00, 0x04, 0xff, 0x90, 0x00, 0x00, 0x01, 0x01, 0xcc})
	}
	f.Add([]byte{0xe9, 0x00, 0x10, 0x00, 0x00}, []byte{0x03, 0x00, 0x02})
	// Tiles whose jumps cross shard boundaries: a NOP shard before
	// twelve NOP shards that each open with a jmp rel32 into the shard
	// before, 100 bytes past its start. Target-side edits put a
	// mov eax, imm32 over a target and take it back, so the round
	// re-parses the target's chunk and replays the jump's: shard 4's
	// jump, in chunk 1, lands in shard 3 (offset 0xc064), and shard 2's
	// in shard 1 (0x4064). A second script truncates mid-shard, below
	// the shard 2 boundary, and grows back by 64 KiB.
	tiled := bytes.Repeat([]byte{0x90}, 13*core.ShardBytes)
	for s := 1; s < 13; s++ {
		off := s * core.ShardBytes
		rel := int32(100 - core.ShardBytes - 5)
		tiled[off], tiled[off+1], tiled[off+2], tiled[off+3], tiled[off+4] = 0xe9, byte(rel), byte(rel>>8), byte(rel>>16), byte(rel>>24)
	}
	f.Add(tiled, []byte{0x00, 0xc0, 0x63, 0x00, 0xb8, 0x00, 0xc0, 0x63, 0x00, 0x90, 0x00, 0x40, 0x63, 0x00, 0xb8, 0x00, 0xc0, 0x62, 0x01, 0x90})
	f.Add(tiled, []byte{0x03, 0x7f, 0xd8, 0x00, 0x00, 0x02, 0x00, 0x00, 0xff, 0x90, 0x00, 0x40, 0x63, 0x00, 0xb8})

	f.Fuzz(func(t *testing.T, img, script []byte) {
		if len(img) > 512<<10 || len(script) > 30 {
			t.Skip()
		}
		for _, c := range checkers {
			name := c.PolicyInfo().Name
			code := append([]byte(nil), img...)
			opts := core.VerifyOptions{Workers: 1}

			rep, state, err := c.VerifyDeltaWith(code, nil, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			deltaRoundEqual(t, rep, c.VerifyWith(code, opts), name+"/round 0")

			// Each op consumes 5 script bytes: kind, 2-byte offset seed,
			// length seed, fill byte. Offsets and lengths are scaled to
			// the image so edits land everywhere from byte 0 to past the
			// last chunk boundary.
			for round := 0; round+5 <= len(script) && round < 30; round += 5 {
				op := script[round]
				off := int(script[round+1])<<8 | int(script[round+2])
				n := 1 + int(script[round+3])*257
				fill := script[round+4]
				if len(code) > 0 {
					off = off % (len(code) + 1)
				} else {
					off = 0
				}
				var changed []core.Range
				switch op % 4 {
				case 0: // overwrite [off, off+n)
					if off == len(code) {
						off = 0
					}
					end := off + n
					if end > len(code) {
						end = len(code)
					}
					for i := off; i < end; i++ {
						code[i] = fill
					}
					changed = []core.Range{{Off: off, Len: end - off}}
				case 1: // insert n bytes at off (moves the tail)
					ins := bytes.Repeat([]byte{fill}, n)
					code = append(code[:off], append(ins, code[off:]...)...)
					changed = []core.Range{{Off: off, Len: len(code) - off}}
				case 2: // append n bytes (no range needed: only the size moved)
					code = append(code, bytes.Repeat([]byte{fill}, n)...)
				case 3: // truncate to off
					code = code[:off]
				}
				var got *core.Report
				got, state, err = c.VerifyDeltaWith(code, changed, state, opts)
				if err != nil {
					t.Fatal(err)
				}
				deltaRoundEqual(t, got, c.VerifyWith(code, opts), name+"/edited round")
			}
		}
	})
}
