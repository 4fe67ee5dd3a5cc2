package core_test

import (
	"bytes"
	"context"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/policy"
	"rocksalt/internal/vcache"
)

// deltaChunk mirrors the engine's retained-chunk granularity (64 KiB);
// the edge-geometry tests place edits relative to it.
const deltaChunk = 64 << 10

// deltaRound runs one VerifyDelta round and asserts its report is
// byte-identical to a cold full verify of the same bytes, returning
// the round's report and next state.
func deltaRound(t *testing.T, c *core.Checker, code []byte, changed []core.Range, state *core.DeltaState, what string) (*core.Report, *core.DeltaState) {
	t.Helper()
	opts := core.VerifyOptions{Workers: 1}
	rep, next, err := c.VerifyDeltaWith(code, changed, state, opts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	deltaRoundEqual(t, rep, c.VerifyWith(code, opts), what)
	return rep, next
}

// TestDeltaEdgeGeometry drives VerifyDelta through the edit shapes
// that stress the dirty-set computation: a no-op round, an edit
// straddling a chunk boundary, an edit in the final chunk, growth,
// shrinkage, a clean chunk flipping to violating, and the revert —
// each round checked byte-identical to a full verify.
func TestDeltaEdgeGeometry(t *testing.T) {
	c := checker(t)
	img := cacheImage(t, 5, 60000)
	nc := (len(img) + deltaChunk - 1) / deltaChunk

	_, state := deltaRound(t, c, img, nil, nil, "initial full round")

	// A no-edit round replays every chunk, the final one included, and
	// re-parses nothing.
	rep, state := deltaRound(t, c, img, nil, state, "no-edit round")
	if rep.Stats.DeltaChunksReplayed != int64(nc) || rep.Stats.DeltaChunksReparsed != 0 {
		t.Fatalf("no-edit round reparsed %d chunks, replayed %d (want 0 reparsed, %d replayed)",
			rep.Stats.DeltaChunksReparsed, rep.Stats.DeltaChunksReplayed, nc)
	}
	if rep.Stats.DeltaBytesReparsed != 0 {
		t.Fatalf("no-edit round reparsed %d bytes, want 0", rep.Stats.DeltaBytesReparsed)
	}

	// An edit straddling the chunk 0 / chunk 1 boundary dirties both
	// sides and nothing else.
	edit := func(code []byte, off, n int, fill byte) []core.Range {
		for i := off; i < off+n && i < len(code); i++ {
			code[i] = fill
		}
		return []core.Range{{Off: off, Len: n}}
	}
	saved := append([]byte(nil), img[deltaChunk-4:deltaChunk+4]...)
	rep, state = deltaRound(t, c, img, edit(img, deltaChunk-4, 8, 0x90), state, "boundary-straddling edit")
	if got := rep.Stats.DeltaChunksReparsed; got != 2 {
		t.Fatalf("boundary edit reparsed %d chunks, want 2 (both sides)", got)
	}
	copy(img[deltaChunk-4:], saved)
	_, state = deltaRound(t, c, img, []core.Range{{Off: deltaChunk - 4, Len: 8}}, state, "boundary revert")

	// An edit at the very end re-parses the final chunk alone.
	rep, state = deltaRound(t, c, img, edit(img, len(img)-2, 2, 0x90), state, "final-chunk edit")
	if got := rep.Stats.DeltaChunksReparsed; got != 1 {
		t.Fatalf("final-chunk edit reparsed %d chunks, want 1", got)
	}

	// Growth: append nop bundles. The old final chunk (whose parse saw
	// the old image end) and the new chunks re-parse; everything before
	// replays.
	grown := append(append([]byte(nil), img...), bytes.Repeat([]byte{0x90}, 3*deltaChunk)...)
	rep, state = deltaRound(t, c, grown, nil, state, "grow by three chunks")
	if rep.Stats.DeltaChunksReplayed != int64(nc-1) {
		t.Fatalf("grow replayed %d chunks, want the %d before the old final chunk", rep.Stats.DeltaChunksReplayed, nc-1)
	}

	// Shrinkage back to the original size, then below a chunk boundary.
	_, state = deltaRound(t, c, grown[:len(img)], nil, state, "shrink to original")
	_, state = deltaRound(t, c, grown[:deltaChunk+100], nil, state, "shrink to just past one chunk")
	_, state = deltaRound(t, c, img, nil, state, "grow back to original")

	// Flip a mid-image chunk to violating (keep flipping bytes until
	// the full verifier rejects), then revert: the state must neither
	// mask the violation nor retain it after the revert.
	pristine := append([]byte(nil), img...)
	off := deltaChunk + deltaChunk/2
	var rep2 *core.Report
	for i := 0; ; i++ {
		img[off+i] ^= 0xff
		rep2, state = deltaRound(t, c, img, []core.Range{{Off: off + i, Len: 1}}, state, "violating flip")
		if !rep2.Safe {
			break
		}
		if i > 200 {
			t.Fatal("200 byte flips never produced a violation")
		}
	}
	copy(img, pristine)
	rep2, _ = deltaRound(t, c, img, []core.Range{{Off: off, Len: 256}}, state, "revert to clean")
	if !rep2.Safe {
		t.Fatalf("reverted image still rejected: %v", rep2.Err())
	}
}

// TestDeltaFinalChunk pins the final chunk's retention rules, for an
// image ending mid-chunk and one ending on a chunk boundary: a
// same-size round replays an unedited, violation-free final chunk; an
// edit inside it re-parses it alone; an edit in its first bytes — the
// lookahead overhang its predecessor's parse also reads — re-parses
// both; a violating final chunk re-parses every round until reverted;
// and a size change always re-parses it. Edits that only re-declare a
// range (same bytes) keep the image compliant, so the counts are exact.
func TestDeltaFinalChunk(t *testing.T) {
	c := checker(t)
	base := cacheImage(t, 12, 60000)
	pad := (deltaChunk - len(base)%deltaChunk) % deltaChunk
	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"partial final chunk", base},
		{"chunk-aligned end", append(append([]byte(nil), base...), bytes.Repeat([]byte{0x90}, pad)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := append([]byte(nil), tc.img...)
			nc := (len(img) + deltaChunk - 1) / deltaChunk
			last := (nc - 1) * deltaChunk
			wantReparsed := func(rep *core.Report, n int, what string) {
				t.Helper()
				if rep.Stats.DeltaChunksReparsed != int64(n) || rep.Stats.DeltaChunksReplayed != int64(nc-n) {
					t.Fatalf("%s: reparsed %d, replayed %d chunks; want %d reparsed, %d replayed",
						what, rep.Stats.DeltaChunksReparsed, rep.Stats.DeltaChunksReplayed, n, nc-n)
				}
			}

			_, state := deltaRound(t, c, img, nil, nil, "initial full round")
			rep, state := deltaRound(t, c, img, nil, state, "no-edit round")
			wantReparsed(rep, 0, "no-edit round")

			rep, state = deltaRound(t, c, img, []core.Range{{Off: len(img) - 2, Len: 2}}, state, "edit at the image end")
			wantReparsed(rep, 1, "edit at the image end")
			if want := int64(len(img) - last); rep.Stats.DeltaBytesReparsed != want {
				t.Fatalf("edit at the image end reparsed %d bytes, want the %d-byte final chunk", rep.Stats.DeltaBytesReparsed, want)
			}

			rep, state = deltaRound(t, c, img, []core.Range{{Off: last, Len: 1}}, state, "edit in the predecessor's overhang")
			wantReparsed(rep, 2, "edit in the predecessor's overhang")

			// Poison the last bundle: a bundle start is an instruction
			// boundary, and a bare RET there is illegal.
			lastBundle := (len(img) - 1) / core.BundleSize * core.BundleSize
			saved := img[lastBundle]
			img[lastBundle] = 0xc3
			poison := []core.Range{{Off: lastBundle, Len: 1}}
			rep, state = deltaRound(t, c, img, poison, state, "poisoned final chunk")
			if rep.Safe {
				t.Fatal("poisoned final chunk accepted")
			}
			rep, state = deltaRound(t, c, img, nil, state, "no-edit round over a violating final chunk")
			wantReparsed(rep, 1, "no-edit round over a violating final chunk")
			img[lastBundle] = saved
			_, state = deltaRound(t, c, img, poison, state, "revert")
			rep, state = deltaRound(t, c, img, nil, state, "no-edit round after the revert")
			wantReparsed(rep, 0, "no-edit round after the revert")

			// A size change re-parses the final chunk even with no range.
			shrunk := img[:len(img)-core.BundleSize]
			rep, state = deltaRound(t, c, shrunk, nil, state, "shrink by one bundle")
			if rep.Stats.DeltaChunksReparsed < 1 || rep.Stats.DeltaBytesReparsed < int64(len(shrunk)-last) {
				t.Fatalf("shrink reparsed %d chunks (%d bytes), want at least the final chunk",
					rep.Stats.DeltaChunksReparsed, rep.Stats.DeltaBytesReparsed)
			}
			deltaRound(t, c, img, nil, state, "grow back")
		})
	}
}

// TestDeltaWarmsChunkCache pins the store-back satellite: a delta
// round with a cache attached must leave the ordinary keyed chunk
// path fully warm, both after the initial round and after an edit.
func TestDeltaWarmsChunkCache(t *testing.T) {
	c := checker(t)
	img := cacheImage(t, 6, 60000)
	nc := int64(len(img) / deltaChunk)
	if len(img)%deltaChunk == 0 {
		nc--
	}
	cache := vcache.New(64 << 20)
	opts := core.VerifyOptions{Workers: 1, Cache: cache}

	if _, _, err := c.VerifyDeltaWith(img, nil, nil, opts); err != nil {
		t.Fatal(err)
	}
	warm := c.VerifyWith(img, opts)
	if warm.Stats.CacheChunkHits != nc || warm.Stats.CacheChunkMisses != 0 {
		t.Fatalf("after delta store-back: %d chunk hits, %d misses (want %d hits, 0 misses)",
			warm.Stats.CacheChunkHits, warm.Stats.CacheChunkMisses, nc)
	}
	if r := warm.Stats.ChunkHitRatio(); r != 1 {
		t.Fatalf("hit ratio %v, want 1", r)
	}

	// Overwrite one whole bundle well inside chunk 1 with nops — a
	// compliance-preserving edit — through a fresh delta session; the
	// refreshed chunk must be re-banked under its new content key while
	// the untouched chunks still hit under their old ones.
	edited := append([]byte(nil), img...)
	off := deltaChunk + 1024
	for i := 0; i < 32; i++ {
		edited[off+i] = 0x90
	}
	_, state, err := c.VerifyDeltaWith(img, nil, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := c.VerifyDeltaWith(edited, []core.Range{{Off: off, Len: 32}}, state, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe {
		t.Fatalf("nop-bundle edit should preserve compliance: %v", rep.Err())
	}
	warm = c.VerifyWith(edited, opts)
	if warm.Stats.CacheChunkHits != nc || warm.Stats.CacheChunkMisses != 0 {
		t.Fatalf("after edited-round store-back: %d chunk hits, %d misses (want %d hits, 0 misses)",
			warm.Stats.CacheChunkHits, warm.Stats.CacheChunkMisses, nc)
	}
}

// TestDeltaConfigMismatch: handing a state to a differently configured
// checker must degrade to a transparent full rebuild, never a wrong
// verdict or replayed foreign artifacts.
func TestDeltaConfigMismatch(t *testing.T) {
	a := checker(t)
	com, err := policy.Compile(policy.NaCl16())
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.NewCheckerFromPolicy(com)
	if err != nil {
		t.Fatal(err)
	}
	// An image compliant under b, so b's rebuilt state has clean chunks
	// to replay; a's state for it is foreign either way.
	prof, err := nacl.ProfileForSpec(com.Spec)
	if err != nil {
		t.Fatal(err)
	}
	img, err := nacl.NewGeneratorFor(7, prof, com.SafeGrammar).Random(60000)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) < 3*deltaChunk {
		t.Fatalf("generated image too small for chunk tests: %d bytes", len(img))
	}

	_, state, err := a.VerifyDeltaWith(img, nil, nil, core.VerifyOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, state2, err := b.VerifyDeltaWith(img, nil, state, core.VerifyOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	deltaRoundEqual(t, rep, b.VerifyWith(img, core.VerifyOptions{Workers: 1}), "foreign-state round")
	if rep.Stats.DeltaChunksReplayed != 0 {
		t.Fatalf("foreign state replayed %d chunks", rep.Stats.DeltaChunksReplayed)
	}
	// The rebuilt state belongs to b now and replays normally.
	rep, _, err = b.VerifyDeltaWith(img, nil, state2, core.VerifyOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.DeltaChunksReplayed == 0 {
		t.Fatal("rebuilt state replayed nothing on the next round")
	}
}

// TestDeltaInterrupted: a canceled round reports Canceled, and the
// returned state stays sound — the next round re-parses whatever the
// canceled one touched and matches a full verify.
func TestDeltaInterrupted(t *testing.T) {
	c := checker(t)
	img := cacheImage(t, 8, 60000)

	_, state, err := c.VerifyDeltaWith(img, nil, nil, core.VerifyOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	edited := append([]byte(nil), img...)
	edited[deltaChunk/2] ^= 0xff
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, state, err := c.VerifyDeltaContext(ctx, edited, []core.Range{{Off: deltaChunk / 2, Len: 1}}, state, core.VerifyOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != core.OutcomeCanceled || !rep.Interrupted() {
		t.Fatalf("canceled round reported %v", rep.Outcome)
	}
	deltaRound(t, c, edited, []core.Range{{Off: deltaChunk / 2, Len: 1}}, state, "round after cancel")
}

// TestDeltaRejectsNegativeRange: malformed ranges error out without
// corrupting the state.
func TestDeltaRejectsNegativeRange(t *testing.T) {
	c := checker(t)
	img, err := nacl.NewGenerator(9).Random(100)
	if err != nil {
		t.Fatal(err)
	}
	_, state, err := c.VerifyDeltaWith(img, nil, nil, core.VerifyOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.VerifyDeltaWith(img, []core.Range{{Off: -1, Len: 4}}, state, core.VerifyOptions{Workers: 1}); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, _, err := c.VerifyDeltaWith(img, []core.Range{{Off: 0, Len: -4}}, state, core.VerifyOptions{Workers: 1}); err == nil {
		t.Fatal("negative length accepted")
	}
	deltaRound(t, c, img, nil, state, "round after rejected ranges")
}
