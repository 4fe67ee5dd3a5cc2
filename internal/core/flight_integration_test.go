package core_test

import (
	"bytes"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/flight"
	"rocksalt/internal/nacl"
	"rocksalt/internal/vcache"
)

// installRecorder installs a fresh global flight recorder for one test
// and removes it afterwards (the global is process-wide state shared
// with the alloc tests).
func installRecorder(t *testing.T) *flight.Recorder {
	t.Helper()
	r := flight.NewRecorder(0)
	flight.SetGlobal(r)
	t.Cleanup(func() { flight.SetGlobal(nil) })
	return r
}

func kindsOf(events []flight.Event) map[flight.Kind]int {
	m := map[flight.Kind]int{}
	for _, ev := range events {
		m[ev.Kind]++
	}
	return m
}

// TestFlightSpansCoverPipeline verifies the tentpole wiring: one
// cache-backed Verify run records spans for every pipeline stage —
// run, per-shard stage 1, reconcile, jump check and cache store — and
// a warm re-verify of the same image records the cache-serve event
// instead of re-running the pipeline.
func TestFlightSpansCoverPipeline(t *testing.T) {
	c := checker(t)
	r := installRecorder(t)
	cache := vcache.New(64 << 20)
	img := bytes.Repeat([]byte{0x90}, 3*512*core.BundleSize) // 3 shards

	rep := c.VerifyWith(img, core.VerifyOptions{Workers: 2, Cache: cache})
	if !rep.Safe {
		t.Fatalf("NOP image must verify: %v", rep.Err())
	}
	events := r.Snapshot()
	kinds := kindsOf(events)
	if kinds[flight.SpanRun] != 1 {
		t.Errorf("run spans = %d, want 1", kinds[flight.SpanRun])
	}
	if kinds[flight.SpanShard] != 3 {
		t.Errorf("shard spans = %d, want 3", kinds[flight.SpanShard])
	}
	if kinds[flight.SpanReconcile] != 1 {
		t.Errorf("reconcile spans = %d, want 1", kinds[flight.SpanReconcile])
	}
	if kinds[flight.SpanJumps] != 1 {
		t.Errorf("jump-check spans = %d, want 1", kinds[flight.SpanJumps])
	}
	// Chunk store plus whole-image store.
	if kinds[flight.SpanCacheStore] < 1 {
		t.Errorf("cache-store spans = %d, want >= 1", kinds[flight.SpanCacheStore])
	}
	for _, ev := range events {
		if ev.Kind == flight.SpanShard && ev.Engine == flight.EngineNone {
			t.Errorf("shard span %d has no engine attribution", ev.Shard)
		}
		if ev.Kind.Span() && ev.Dur < 0 {
			t.Errorf("%v span has negative duration %d", ev.Kind, ev.Dur)
		}
	}
	census := flight.Census(events)
	if len(census) == 0 {
		t.Error("census is empty for a recorded run")
	}

	// Warm path: the same image under the same cache is answered from
	// the whole-image verdict and must surface as a cache-serve event.
	rep2 := c.VerifyWith(img, core.VerifyOptions{Workers: 2, Cache: cache})
	if !rep2.Safe || rep2.Stats.CacheWholeHits != 1 {
		t.Fatalf("warm run: safe=%v wholeHits=%d, want cached hit", rep2.Safe, rep2.Stats.CacheWholeHits)
	}
	kinds2 := kindsOf(r.Snapshot())
	if kinds2[flight.EventCacheServe] != 1 {
		t.Errorf("cache-serve events = %d, want 1", kinds2[flight.EventCacheServe])
	}
	if kinds2[flight.SpanRun] != 1 {
		t.Errorf("run spans after warm verify = %d, want still 1 (no re-run)", kinds2[flight.SpanRun])
	}
}

// TestCacheServeCensus pins the satellite fix: a Verify answered from
// the whole-image cache reports engine "cache" — not the engine census
// of the original parse — and zeroes the parse-mode counters that
// described work this run did not do.
func TestCacheServeCensus(t *testing.T) {
	c := checker(t)
	cache := vcache.New(64 << 20)
	gen := nacl.NewGenerator(11)
	img, err := gen.Random(2000)
	if err != nil {
		t.Fatal(err)
	}

	cold := c.VerifyWith(img, core.VerifyOptions{Workers: 1, Cache: cache})
	if !cold.Safe {
		t.Fatalf("generated image must verify: %v", cold.Err())
	}
	if cold.Stats.Engine == "cache" {
		t.Fatalf("cold run engine = %q, must be a parse engine", cold.Stats.Engine)
	}

	warm := c.VerifyWith(img, core.VerifyOptions{Workers: 1, Cache: cache})
	if !warm.Safe {
		t.Fatalf("warm run must verify: %v", warm.Err())
	}
	if warm.Stats.Engine != "cache" {
		t.Errorf("warm run engine = %q, want %q", warm.Stats.Engine, "cache")
	}
	if warm.Stats.CacheWholeHits != 1 {
		t.Errorf("warm CacheWholeHits = %d, want 1", warm.Stats.CacheWholeHits)
	}
	if warm.Stats.LaneBatches != 0 || warm.Stats.SWARBatches != 0 ||
		warm.Stats.ScalarFallbacks != 0 || warm.Stats.Restarts != 0 {
		t.Errorf("warm run reports parse work it did not do: %+v", warm.Stats)
	}
	if warm.Stats.CacheBytesSaved != int64(len(img)) {
		t.Errorf("warm CacheBytesSaved = %d, want %d", warm.Stats.CacheBytesSaved, len(img))
	}
}

// TestFlightChunkEvents checks the chunk-cache instrumentation: after a
// cold run populates the chunk layer, verifying an image with one
// modified chunk records both chunk-hit and chunk-miss events.
func TestFlightChunkEvents(t *testing.T) {
	c := checker(t)
	cache := vcache.New(64 << 20)
	img := bytes.Repeat([]byte{0x90}, 4*64<<10) // 4 chunks
	if rep := c.VerifyWith(img, core.VerifyOptions{Workers: 1, Cache: cache}); !rep.Safe {
		t.Fatalf("cold run failed: %v", rep.Err())
	}

	r := installRecorder(t)
	mod := append([]byte(nil), img...)
	mod[0] = 0x91 // xchg eax,ecx — still safe, but changes chunk 0's key
	rep := c.VerifyWith(mod, core.VerifyOptions{Workers: 1, Cache: cache})
	if !rep.Safe {
		t.Fatalf("modified run failed: %v", rep.Err())
	}
	kinds := kindsOf(r.Snapshot())
	if kinds[flight.EventChunkHit] == 0 {
		t.Errorf("no chunk-hit events; stats: %+v", rep.Stats)
	}
	if kinds[flight.EventChunkMiss] == 0 {
		t.Errorf("no chunk-miss events; stats: %+v", rep.Stats)
	}
}

// TestFlightDeltaReplayRuns: a delta round records one replay event per
// maximal run of replayed chunks, not one per chunk, so a one-chunk
// edit mid-image records two (the runs before and after the edit), and
// together they cover exactly the replayed bytes.
func TestFlightDeltaReplayRuns(t *testing.T) {
	c := checker(t)
	img := cacheImage(t, 14, 60000)
	_, state, err := c.VerifyDeltaWith(img, nil, nil, core.VerifyOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	r := installRecorder(t)
	off := 2*64<<10 + 1024 // well inside chunk 2, clear of any overhang
	rep, _, err := c.VerifyDeltaWith(img, []core.Range{{Off: off, Len: 64}}, state, core.VerifyOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.DeltaChunksReparsed != 1 {
		t.Fatalf("one-chunk edit reparsed %d chunks, want 1", rep.Stats.DeltaChunksReparsed)
	}
	var replays, replayed int64
	for _, ev := range r.Snapshot() {
		if ev.Kind == flight.EventChunkReplay {
			replays++
			replayed += ev.Bytes
		}
	}
	if replays != 2 {
		t.Errorf("mid-image one-chunk edit recorded %d replay events, want 2 (one run each side)", replays)
	}
	if want := int64(len(img)) - rep.Stats.DeltaBytesReparsed; replayed != want {
		t.Errorf("replay events cover %d bytes, want the %d bytes not re-parsed", replayed, want)
	}
}
