package core_test

import (
	"reflect"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/vcache"
)

// cacheImage builds a compliant multi-chunk image (several 64KiB cache
// chunks) so the chunk layer has something to do.
func cacheImage(t *testing.T, seed int64, insns int) []byte {
	t.Helper()
	img, err := nacl.NewGenerator(seed).Random(insns)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) < 3*64<<10 {
		t.Fatalf("generated image too small for chunk tests: %d bytes", len(img))
	}
	return img
}

// sameVerdict asserts two reports agree on everything the cache
// promises to preserve: the verdict and the full diagnosis. Stats and
// CacheKey legitimately differ between cached and uncached runs.
func sameVerdict(t *testing.T, got, want *core.Report, what string) {
	t.Helper()
	if got.Safe != want.Safe || got.Outcome != want.Outcome || got.Total != want.Total ||
		got.Size != want.Size || got.Shards != want.Shards {
		t.Fatalf("%s: verdict differs: got {safe %v %v total %d} want {safe %v %v total %d}",
			what, got.Safe, got.Outcome, got.Total, want.Safe, want.Outcome, want.Total)
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Fatalf("%s: violations differ", what)
	}
}

// TestCacheWholeImageHit: a whole-image hit serves the cold run's
// verdict, through the content key and through a caller-held key, on
// a safe image and on a rejected one. The cache shares no memory with
// the reports it hands out: editing the cold report, or a served one,
// in place never changes what a later hit returns.
func TestCacheWholeImageHit(t *testing.T) {
	c := checker(t)
	safe := cacheImage(t, 1, 60000)
	// A bare RET at a bundle start in chunk 1 is an illegal instruction.
	rejected := append([]byte(nil), safe...)
	rejected[64<<10+4*core.BundleSize] = 0xc3
	for _, tc := range []struct {
		name string
		img  []byte
	}{{"safe", safe}, {"rejected", rejected}} {
		t.Run(tc.name, func(t *testing.T) {
			img := tc.img
			cache := vcache.New(64 << 20)
			opts := core.VerifyOptions{Workers: 1, Cache: cache}

			want := c.VerifyWith(img, core.VerifyOptions{Workers: 1})
			if want.Safe != (tc.name == "safe") {
				t.Fatalf("cold uncached run: %v", want.Outcome)
			}
			first := c.VerifyWith(img, opts)
			sameVerdict(t, first, want, "first cached run")
			if first.Stats.CacheWholeHits != 0 {
				t.Fatal("cold run reported a whole-image hit")
			}
			if first.CacheKey == "" {
				t.Fatal("cached run did not report its content key")
			}
			scribble(first)

			second := c.VerifyWith(img, opts)
			sameVerdict(t, second, want, "warm run")
			if second.Stats.CacheWholeHits != 1 {
				t.Fatalf("warm run stats %+v: expected a whole-image hit", second.Stats)
			}
			if second.Stats.CacheBytesSaved != int64(len(img)) {
				t.Fatalf("whole hit saved %d bytes, want %d", second.Stats.CacheBytesSaved, len(img))
			}
			scribble(second)

			// The keyed path: hand the reported key back and hit without any
			// hashing pass over the content.
			key, err := vcache.ParseKey(first.CacheKey)
			if err != nil {
				t.Fatal(err)
			}
			keyed := c.VerifyWith(img, core.VerifyOptions{Workers: 1, Cache: cache, CacheKey: &key})
			sameVerdict(t, keyed, want, "keyed warm run")
			if keyed.Stats.CacheWholeHits != 1 {
				t.Fatal("keyed run missed")
			}
		})
	}
}

// scribble edits a report's violations in place, as the caller that
// owns the report may.
func scribble(rep *core.Report) {
	for i := range rep.Violations {
		rep.Violations[i].Offset = -1
		if len(rep.Violations[i].Window) > 0 {
			rep.Violations[i].Window[0] ^= 0xff
		}
	}
}

func TestCacheChunkReuseAfterEdit(t *testing.T) {
	c := checker(t)
	img := cacheImage(t, 2, 60000)
	cache := vcache.New(64 << 20)
	opts := core.VerifyOptions{Workers: 1, Cache: cache}

	if rep := c.VerifyWith(img, opts); !rep.Safe {
		t.Fatalf("generated image not safe: %v", rep.Err())
	}

	// Corrupt one byte in the middle of the last cacheable chunk — and
	// keep flipping until the image actually rejects (a lone flip can
	// land on another valid encoding). Every untouched chunk must come
	// back from the cache; the verdict must be byte-identical to an
	// uncached verification of the edited image.
	edited := append([]byte(nil), img...)
	var want *core.Report
	for editAt := 2*64<<10 + 300; ; editAt++ {
		edited[editAt] ^= 0xff
		if want = c.VerifyWith(edited, core.VerifyOptions{Workers: 1}); !want.Safe {
			break
		}
		edited[editAt] ^= 0xff
	}
	got := c.VerifyWith(edited, opts)
	sameVerdict(t, got, want, "edited image via chunk cache")
	if got.Stats.CacheWholeHits != 0 {
		t.Fatal("edited image claimed a whole-image hit")
	}
	if got.Stats.CacheChunkHits == 0 {
		t.Fatalf("no chunk hits on a one-byte edit: %+v", got.Stats)
	}
	if got.Stats.CacheChunkMisses == 0 {
		t.Fatalf("the edited chunk should have missed: %+v", got.Stats)
	}
	if got.Stats.CacheBytesSaved != got.Stats.CacheChunkHits*64<<10 {
		t.Fatalf("bytes saved %d inconsistent with %d chunk hits",
			got.Stats.CacheBytesSaved, got.Stats.CacheChunkHits)
	}

	// Parallel workers must reach the same verdict with the same cache.
	gotPar := c.VerifyWith(edited, core.VerifyOptions{Workers: 8, Cache: cache})
	sameVerdict(t, gotPar, want, "edited image, parallel workers")

	// A violating chunk is never stored: re-verifying the edited image
	// after evicting its whole-image report must re-miss that chunk.
	// (Fresh cache isolates the property.)
	fresh := vcache.New(64 << 20)
	r1 := c.VerifyWith(edited, core.VerifyOptions{Workers: 1, Cache: fresh})
	r2 := c.VerifyWith(edited, core.VerifyOptions{Workers: 1, Cache: fresh})
	sameVerdict(t, r2, want, "rejected image re-verified")
	if r1.Safe || r2.Stats.CacheWholeHits != 1 {
		t.Fatalf("rejected whole-image reports should still be cached: %+v", r2.Stats)
	}
}

func TestCacheConfigSeparation(t *testing.T) {
	base := checker(t)
	img := cacheImage(t, 3, 60000)
	cache := vcache.New(64 << 20)

	rep := base.VerifyWith(img, core.VerifyOptions{Workers: 1, Cache: cache})
	if rep.CacheKey == "" {
		t.Fatal("no cache key reported")
	}

	// A checker with different policy knobs must not share entries even
	// for identical bytes: its config hash differs, so its keys differ.
	other := checker(t)
	other.AlignedCalls = true
	rep2 := other.VerifyWith(img, core.VerifyOptions{Workers: 1, Cache: cache})
	if rep2.CacheKey == rep.CacheKey {
		t.Fatal("different configurations produced the same content key")
	}
	if rep2.Stats.CacheWholeHits != 0 {
		t.Fatal("different configuration hit the other checker's entry")
	}

	entries := checker(t)
	entries.Entries = map[uint32]bool{0x1000: true}
	rep3 := entries.VerifyWith(img, core.VerifyOptions{Workers: 1, Cache: cache})
	if rep3.CacheKey == rep.CacheKey || rep3.Stats.CacheWholeHits != 0 {
		t.Fatal("Entries whitelist not separated in the config hash")
	}

	// Same configuration in a distinct checker instance shares entries:
	// the key is content-addressed, not instance-addressed.
	twin := checker(t)
	rep4 := twin.VerifyWith(img, core.VerifyOptions{Workers: 1, Cache: cache})
	if rep4.CacheKey != rep.CacheKey || rep4.Stats.CacheWholeHits != 1 {
		t.Fatalf("equal configuration did not share the cache: key match %v, whole hits %d",
			rep4.CacheKey == rep.CacheKey, rep4.Stats.CacheWholeHits)
	}
}

func TestCacheAnalyzeChunkLayer(t *testing.T) {
	c := checker(t)
	img := cacheImage(t, 4, 60000)
	cache := vcache.New(64 << 20)
	opts := core.VerifyOptions{Workers: 1, Cache: cache}

	wantValid, wantPair, wantRep := c.AnalyzeWith(img, core.VerifyOptions{Workers: 1})
	v1, p1, r1 := c.AnalyzeWith(img, opts)
	v2, p2, r2 := c.AnalyzeWith(img, opts)
	if r2.Stats.CacheChunkHits == 0 {
		t.Fatalf("warm Analyze used no chunk hits: %+v", r2.Stats)
	}
	if r2.Stats.CacheWholeHits != 0 {
		t.Fatal("Analyze must not take the whole-image path (it has bitmaps to fill)")
	}
	sameVerdict(t, r1, wantRep, "cold cached Analyze")
	sameVerdict(t, r2, wantRep, "warm cached Analyze")
	if !reflect.DeepEqual(v1, wantValid) || !reflect.DeepEqual(v2, wantValid) {
		t.Fatal("cached Analyze boundary bitmap differs from uncached")
	}
	if !reflect.DeepEqual(p1, wantPair) || !reflect.DeepEqual(p2, wantPair) {
		t.Fatal("cached Analyze pairJmp bitmap differs from uncached")
	}
}

// TestCacheBadTargetReplay pins the subtlest chunk-cache invariant: a
// chunk with no shard-local violation is stored and replayed, but its
// shards may have proven in-shard jump targets bad — a fact that only
// becomes a TargetNotBoundary violation at reconcile. The replay must
// carry those bad targets, or a warm run would accept an image the cold
// run rejects.
func TestCacheBadTargetReplay(t *testing.T) {
	c := checker(t)
	// Three full 64KiB chunks of NOPs plus a tail, with one direct jump
	// in chunk 0 whose target (offset 2) is inside the jump instruction
	// itself: no shard-local violation, but reconcile must reject.
	img := make([]byte, 3*64<<10+64)
	for i := range img {
		img[i] = 0x90
	}
	img[0] = 0xe9 // jmp rel32 to offset 2 = 5 + (-3)
	rel := int32(-3)
	img[1], img[2], img[3], img[4] = byte(rel), byte(rel>>8), byte(rel>>16), byte(rel>>24)

	want := c.VerifyWith(img, core.VerifyOptions{Workers: 1})
	if want.Safe {
		t.Fatal("jump into an instruction should reject")
	}
	if len(want.Violations) == 0 || want.Violations[0].Kind != core.TargetNotBoundary {
		t.Fatalf("expected TargetNotBoundary, got %+v", want.Violations)
	}

	cache := vcache.New(64 << 20)
	opts := core.VerifyOptions{Workers: 1, Cache: cache}
	cold := c.VerifyWith(img, opts)
	sameVerdict(t, cold, want, "cold run")

	// Change only the non-cacheable tail so the whole-image key misses
	// while every chunk key still hits; the replayed chunk 0 must carry
	// its bad target into reconcile.
	edited := append([]byte(nil), img...)
	edited[len(edited)-1] = 0x50 // push eax: safe, single byte
	want2 := c.VerifyWith(edited, core.VerifyOptions{Workers: 1})
	warm := c.VerifyWith(edited, opts)
	sameVerdict(t, warm, want2, "warm run with replayed bad target")
	if warm.Stats.CacheWholeHits != 0 {
		t.Fatal("tail edit should have missed the whole-image layer")
	}
	if warm.Stats.CacheChunkHits == 0 {
		t.Fatalf("no chunk hits on a tail-only edit: %+v", warm.Stats)
	}
	if warm.Safe || len(warm.Violations) == 0 || warm.Violations[0].Kind != core.TargetNotBoundary {
		t.Fatalf("replayed run lost the bad target: %+v", warm.Violations)
	}
}

func TestCacheSmallImageAndTail(t *testing.T) {
	// Images smaller than one chunk exercise only the whole-image layer;
	// the final chunk of any image is never chunk-cached.
	c := checker(t)
	img, err := nacl.NewGenerator(5).Random(50)
	if err != nil {
		t.Fatal(err)
	}
	cache := vcache.New(1 << 20)
	opts := core.VerifyOptions{Workers: 1, Cache: cache}
	want := c.VerifyWith(img, core.VerifyOptions{Workers: 1})
	first := c.VerifyWith(img, opts)
	sameVerdict(t, first, want, "small image cold")
	if first.Stats.CacheChunkHits != 0 || first.Stats.CacheChunkMisses != 0 {
		t.Fatalf("sub-chunk image touched the chunk layer: %+v", first.Stats)
	}
	second := c.VerifyWith(img, opts)
	sameVerdict(t, second, want, "small image warm")
	if second.Stats.CacheWholeHits != 1 {
		t.Fatal("small image did not whole-hit")
	}
}
