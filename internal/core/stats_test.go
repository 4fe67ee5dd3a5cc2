package core_test

import (
	"bytes"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/telemetry"
	"rocksalt/internal/vcache"
)

// TestStatsDeterministic pins the acceptance criterion that
// Report.Stats counters are byte-identical across worker counts: the
// same image verified with Workers 1, 4, and 0 (= all CPUs) yields
// identical deterministic counters (wall times excluded via Counters).
// It covers a safe multi-shard image, a rejected image with violations
// in several shards, and a tiny single-bundle image.
func TestStatsDeterministic(t *testing.T) {
	c := checker(t)
	gen := nacl.NewGenerator(55)
	safe, err := gen.Random(6000) // multiple shards
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), safe...)
	bad[0] = 0xc3                    // illegal at the very start
	bad[len(bad)/2] = 0xc3           // and mid-image
	tiny := []byte{0x90, 0x90, 0x90} // sub-bundle image
	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"safe", safe},
		{"rejected", bad},
		{"tiny", tiny},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := c.VerifyWith(tc.img, core.VerifyOptions{Workers: 1})
			want := base.Stats.Counters()
			if want.BytesScanned != int64(len(tc.img)) {
				t.Errorf("BytesScanned = %d, want %d", want.BytesScanned, len(tc.img))
			}
			if base.Safe && want.Instructions == 0 {
				t.Error("safe image reported zero instruction boundaries")
			}
			kindTotal := int64(0)
			for _, n := range want.ViolationsByKind {
				kindTotal += n
			}
			if kindTotal != int64(base.Total) {
				t.Errorf("ViolationsByKind sums to %d, Report.Total is %d", kindTotal, base.Total)
			}
			for _, w := range []int{4, 0} {
				rep := c.VerifyWith(tc.img, core.VerifyOptions{Workers: w})
				if got := rep.Stats.Counters(); got != want {
					t.Errorf("workers=%d: stats diverged\n got %+v\nwant %+v", w, got, want)
				}
			}
		})
	}
}

// TestStatsEngineModes pins the lane/scalar/restart classification: a
// large compliant image goes through the lane batches, the reference
// engine is all scalar fallbacks, and a violating image forces lane
// restarts (erase + scalar re-parse).
func TestStatsEngineModes(t *testing.T) {
	c := checker(t)
	gen := nacl.NewGenerator(56)
	img, err := gen.Random(6000)
	if err != nil {
		t.Fatal(err)
	}

	rep := c.VerifyWith(img, core.VerifyOptions{Workers: 1})
	if !rep.Safe {
		t.Fatal("image rejected")
	}
	if rep.Stats.LaneBatches == 0 {
		t.Error("compliant multi-shard image parsed without any lane batch")
	}
	if rep.Stats.Restarts != 0 {
		t.Errorf("compliant image forced %d lane restarts", rep.Stats.Restarts)
	}

	ref := c.VerifyWith(img, core.VerifyOptions{Workers: 1, Engine: core.EngineReference})
	if ref.Stats.LaneBatches != 0 || ref.Stats.Restarts != 0 {
		t.Errorf("reference engine recorded lane activity: %+v", ref.Stats)
	}
	if ref.Stats.ScalarFallbacks != ref.Stats.Shards {
		t.Errorf("reference engine: ScalarFallbacks %d != Shards %d",
			ref.Stats.ScalarFallbacks, ref.Stats.Shards)
	}

	bad := append([]byte(nil), img...)
	bad[0] = 0xc3 // RET at an instruction start is always illegal
	badRep := c.VerifyWith(bad, core.VerifyOptions{Workers: 1})
	if badRep.Safe {
		t.Fatal("tampered image accepted")
	}
	if badRep.Stats.Restarts == 0 {
		t.Error("violating shard did not record a lane restart")
	}
	if badRep.Stats.ViolationsByKind[core.IllegalInstruction] == 0 {
		t.Error("per-kind census missed the illegal instruction")
	}
}

// TestStatsUncappedCensus: ViolationsByKind must count past the
// MaxReportViolations cap — its sum equals Report.Total, not
// len(Report.Violations).
func TestStatsUncappedCensus(t *testing.T) {
	c := checker(t)
	// An image of 0xC3 (RET) bytes violates at every bundle boundary;
	// 200 bundles overflows the 64-violation report cap comfortably.
	img := make([]byte, 200*core.BundleSize)
	for i := range img {
		img[i] = 0xc3
	}
	rep := c.VerifyWith(img, core.VerifyOptions{Workers: 1})
	if rep.Safe {
		t.Fatal("garbage image accepted")
	}
	if rep.Total <= core.MaxReportViolations {
		t.Fatalf("test image too tame: total %d", rep.Total)
	}
	sum := int64(0)
	for _, n := range rep.Stats.ViolationsByKind {
		sum += n
	}
	if sum != int64(rep.Total) {
		t.Errorf("census sums to %d, want the uncapped total %d", sum, rep.Total)
	}
}

// TestContainedPanicMetric: a shard panic must bump the process-wide
// contained-panic counter (with telemetry enabled) in addition to the
// fail-closed InternalFault violation, so containment regressions are
// visible on /metrics, not only in test failures.
func TestContainedPanicMetric(t *testing.T) {
	c := checker(t)
	prev := telemetry.Enabled()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)

	core.SetShardHook(func(shard int) {
		if shard == 1 {
			panic("injected shard fault")
		}
	})
	defer core.SetShardHook(nil)

	img := make([]byte, 2*core.ShardBytes)
	for i := range img {
		img[i] = 0x90
	}
	before, _ := telemetry.Default().Value("rocksalt_verify_contained_panics_total")
	rep := c.VerifyWith(img, core.VerifyOptions{Workers: 2})
	after, _ := telemetry.Default().Value("rocksalt_verify_contained_panics_total")
	if rep.Safe {
		t.Fatal("run with a panicking shard reported safe")
	}
	if rep.Stats.ContainedPanics != 1 {
		t.Errorf("Stats.ContainedPanics = %d, want 1", rep.Stats.ContainedPanics)
	}
	if after-before != 1 {
		t.Errorf("contained-panic counter moved by %d, want 1", after-before)
	}
}

// TestInstructionsParity: Stats.Instructions is the sum of per-shard
// counts taken wherever a shard's boundary words are installed — by a
// parse, a chunk-cache restore, a stream-window harvest, or delta
// retention — so every path must report exactly what a cold VerifyWith
// of the same bytes reports: on a safe image, a rejected one, and one
// whose shard panicked (the contained panic fails the run closed).
func TestInstructionsParity(t *testing.T) {
	c := checker(t)
	safe := cacheImage(t, 13, 60000)
	// A bare RET at a bundle start in chunk 1 is an illegal instruction;
	// the other chunks stay clean, so the warm run restores them.
	rejected := append([]byte(nil), safe...)
	rejected[deltaChunk+4*core.BundleSize] = 0xc3
	// Shard 5 sits in chunk 1 as well: the panicking chunk is never
	// cached or retained, so every path re-parses it.
	const panicShard = 5

	for _, tc := range []struct {
		name        string
		img         []byte
		panic, safe bool
	}{
		{"safe", safe, false, true},
		{"rejected", rejected, false, false},
		{"contained panic", safe, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			panics := int64(0)
			if tc.panic {
				panics = 1
				core.SetShardHook(func(shard int) {
					if shard == panicShard {
						panic("injected shard fault")
					}
				})
				defer core.SetShardHook(nil)
			}
			one := core.VerifyOptions{Workers: 1}
			// check compares a path's report against a cold VerifyWith of
			// the same bytes.
			check := func(what string, img []byte, rep *core.Report) {
				t.Helper()
				cold := c.VerifyWith(img, one)
				if rep.Outcome != cold.Outcome || rep.Total != cold.Total {
					t.Fatalf("%s: verdict %v/%d, cold %v/%d", what, rep.Outcome, rep.Total, cold.Outcome, cold.Total)
				}
				if cold.Safe != tc.safe || cold.Stats.ContainedPanics != panics {
					t.Fatalf("%s: cold run outcome %v with %d contained panics does not fit the case",
						what, cold.Outcome, cold.Stats.ContainedPanics)
				}
				if cold.Stats.Instructions == 0 {
					t.Fatalf("%s: cold run counted no instructions", what)
				}
				if rep.Stats.Instructions != cold.Stats.Instructions {
					t.Errorf("%s: Instructions = %d, cold VerifyWith = %d", what, rep.Stats.Instructions, cold.Stats.Instructions)
				}
			}

			check("cold, 4 workers", tc.img, c.VerifyWith(tc.img, core.VerifyOptions{Workers: 4}))

			// Chunk-cache warm: prime with the image, then verify a copy
			// whose final (never cached) bundle is rewritten as NOPs, so
			// the whole-image key misses and the cacheable chunks are
			// restored instead of parsed.
			cache := vcache.New(64 << 20)
			c.VerifyWith(tc.img, core.VerifyOptions{Workers: 1, Cache: cache})
			warmImg := append([]byte(nil), tc.img...)
			for i := len(warmImg) - core.BundleSize; i < len(warmImg); i++ {
				warmImg[i] = 0x90
			}
			warm := c.VerifyWith(warmImg, core.VerifyOptions{Workers: 1, Cache: cache})
			if warm.Stats.CacheChunkHits == 0 {
				t.Fatalf("warm run restored no chunks: %+v", warm.Stats)
			}
			check("chunk-cache warm", warmImg, warm)

			srep, err := c.VerifyReader(bytes.NewReader(tc.img), core.VerifyOptions{StreamSize: int64(len(tc.img))})
			if err != nil {
				t.Fatal(err)
			}
			check("VerifyReader", tc.img, srep)

			img := append([]byte(nil), tc.img...)
			rep, state, err := c.VerifyDeltaWith(img, nil, nil, one)
			if err != nil {
				t.Fatal(err)
			}
			check("delta round 0", img, rep)
			rep, state, err = c.VerifyDeltaWith(img, nil, state, one)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stats.DeltaChunksReplayed == 0 {
				t.Fatal("no-edit delta round replayed nothing")
			}
			check("no-edit delta round", img, rep)
			// NOP out a bundle in chunk 2: a compliance-preserving edit.
			off := 2*deltaChunk + 8*core.BundleSize
			for i := off; i < off+core.BundleSize; i++ {
				img[i] = 0x90
			}
			rep, _, err = c.VerifyDeltaWith(img, []core.Range{{Off: off, Len: core.BundleSize}}, state, one)
			if err != nil {
				t.Fatal(err)
			}
			check("edited delta round", img, rep)
		})
	}
}
