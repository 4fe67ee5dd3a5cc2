package core_test

import (
	"reflect"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/vcache"
)

// cacheImage builds a compliant image of several 64 KiB chunks, so a
// delta round has chunks to replay and an edit has neighbours.
func cacheImage(t *testing.T, seed int64, insns int) []byte {
	t.Helper()
	img, err := nacl.NewGenerator(seed).Random(insns)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) < 3*64<<10 {
		t.Fatalf("generated image too small for multi-chunk tests: %d bytes", len(img))
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
// in place never changes what a later hit returns. AnalyzeWith ignores
// the warm cache: it parses, so its bitmaps are the uncached ones.
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

			wantValid, wantPair, _ := c.AnalyzeWith(img, core.VerifyOptions{Workers: 1})
			valid, pair, arep := c.AnalyzeWith(img, opts)
			sameVerdict(t, arep, want, "Analyze with the warm cache")
			if arep.Stats.CacheWholeHits != 0 {
				t.Fatal("Analyze took a whole-image hit (it has bitmaps to fill)")
			}
			if !reflect.DeepEqual(valid, wantValid) || !reflect.DeepEqual(pair, wantPair) {
				t.Fatal("Analyze with the warm cache returned bitmaps that differ from uncached")
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

// TestCacheSmallImageAndTail: an image smaller than one shard, all of
// it the final (tail) chunk, caches and hits like any other.
func TestCacheSmallImageAndTail(t *testing.T) {
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
	if first.Stats.CacheWholeHits != 0 {
		t.Fatal("small image hit an empty cache")
	}
	second := c.VerifyWith(img, opts)
	sameVerdict(t, second, want, "small image warm")
	if second.Stats.CacheWholeHits != 1 {
		t.Fatal("small image did not whole-hit")
	}
}
