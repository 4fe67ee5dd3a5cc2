package core_test

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/flight"
	"rocksalt/internal/nacl"
	"rocksalt/internal/policy"
	"rocksalt/internal/telemetry"
)

// TestVerifyZeroAlloc pins the steady-state allocation behaviour of the
// hot path: after one warm-up call (which populates the scratch pool),
// Checker.Verify must not touch the heap, for a single-bundle image and
// for a 100-bundle one. A regression here usually means a closure or a
// Report snuck back into the lean path.
//
// The bound is checked across two independent observability axes:
// telemetry disabled/enabled, and flight recorder uninstalled/
// installed. Every combination must be exactly zero. Telemetry-on is
// atomic adds on stack Stats; recorder-on records spans into a
// preallocated seqlock ring, so neither instrumentation layer may
// touch the heap on the hot path — that is the "zero-overhead"
// contract.
func TestVerifyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the bound only holds in normal builds")
	}
	c := checker(t)
	images := []struct {
		name string
		img  []byte
	}{
		{"1 bundle", bytes.Repeat([]byte{0x90}, core.BundleSize)},
		{"100 bundles", bytes.Repeat([]byte{0x90}, 100*core.BundleSize)},
	}
	for _, enabled := range []bool{false, true} {
		for _, recorder := range []bool{false, true} {
			name := "telemetry=off"
			if enabled {
				name = "telemetry=on"
			}
			if recorder {
				name += "/recorder=on"
			} else {
				name += "/recorder=off"
			}
			t.Run(name, func(t *testing.T) {
				prev := telemetry.Enabled()
				telemetry.SetEnabled(enabled)
				defer telemetry.SetEnabled(prev)
				if recorder {
					flight.SetGlobal(flight.NewRecorder(0))
				}
				defer flight.SetGlobal(nil)
				for _, tc := range images {
					t.Run(tc.name, func(t *testing.T) {
						if !c.Verify(tc.img) {
							t.Fatal("NOP image must verify")
						}
						allocs := testing.AllocsPerRun(100, func() {
							c.Verify(tc.img)
						})
						if allocs != 0 {
							t.Errorf("Verify allocated %.1f times per run, want 0", allocs)
						}
					})
				}
			})
		}
	}
}

// TestVerifyZeroAllocGenerated repeats the bound on a realistic
// generated image (jumps, masked pairs, padding) rather than pure NOPs,
// so the direct-jump target path is exercised too.
func TestVerifyZeroAllocGenerated(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the bound only holds in normal builds")
	}
	c := checker(t)
	gen := nacl.NewGenerator(9)
	img, err := gen.Random(100)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Verify(img) {
		t.Fatal("generated image must verify")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Verify(img)
	})
	if allocs != 0 {
		t.Errorf("Verify allocated %.1f times per run, want 0", allocs)
	}
}

// TestTwoWorkerAllocs pins what a call on the stage-1 pool allocates:
// at two workers, the fewest bytes any of 20 warm calls allocated is
// the same for images of about 1 MiB and 8 MiB, for VerifyWith, for
// VerifyReader and for a one-chunk VerifyDeltaWith edit round. A call's
// pool is one object whose workers claim shards from a cursor, and a
// stream starts it once; a job queue sized by the shard count, or
// workers started per window, grow with the image. Taking the minimum
// leaves out the calls where a per-P pool missed, and the two sizes
// take turns, so anything else the process allocates meanwhile falls on
// both. VerifyWith and VerifyDeltaWith are also held to their count: the
// Report and one allocation per started worker, nothing else.
func TestTwoWorkerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the bound only holds in normal builds")
	}
	c := checker(t)
	const workers = 2
	opts := core.VerifyOptions{Workers: workers}
	edit := []core.Range{{Off: deltaChunk + 1024, Len: 64}}
	paths := []struct {
		name string
		// call returns one call on img, made ready to repeat.
		call func(t *testing.T, img []byte) func()
		// counted marks the paths held to the Report and their workers.
		counted bool
	}{
		{"VerifyWith", func(t *testing.T, img []byte) func() {
			return func() {
				if !c.VerifyWith(img, opts).Safe {
					t.Fatalf("image of %d bytes rejected", len(img))
				}
			}
		}, true},
		{"VerifyReader", func(t *testing.T, img []byte) func() {
			return func() {
				rep, err := c.VerifyReader(bytes.NewReader(img), core.VerifyOptions{StreamSize: int64(len(img)), Workers: workers})
				if err != nil || !rep.Safe {
					t.Fatalf("stream of %d bytes: safe=%v err=%v", len(img), rep != nil && rep.Safe, err)
				}
			}
		}, false},
		{"VerifyDeltaWith", func(t *testing.T, img []byte) func() {
			_, state, err := c.VerifyDeltaWith(img, nil, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			return func() {
				rep, next, err := c.VerifyDeltaWith(img, edit, state, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Safe || rep.Workers != workers {
					t.Fatalf("delta round over %d bytes: safe=%v on %d workers", len(img), rep.Safe, rep.Workers)
				}
				state = next
			}
		}, true},
	}
	images := [2][]byte{streamTiles(t, 15, 1<<20), streamTiles(t, 15, 8<<20)}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			var calls [2]func()
			for k, img := range images {
				calls[k] = p.call(t, img)
				calls[k]()
				calls[k]()
			}
			var perCall [2][]uint64
			var before, after runtime.MemStats
			for i := 0; i < 20; i++ {
				for k, call := range calls {
					runtime.ReadMemStats(&before)
					call()
					runtime.ReadMemStats(&after)
					perCall[k] = append(perCall[k], after.TotalAlloc-before.TotalAlloc)
				}
			}
			if small, big := slices.Min(perCall[0]), slices.Min(perCall[1]); small != big {
				t.Errorf("%s at two workers allocated at least %d bytes a call on %d bytes and %d on %d, want equal; per call:\n%v\n%v",
					p.name, small, len(images[0]), big, len(images[1]), perCall[0], perCall[1])
			} else {
				t.Logf("%s at two workers allocated %d bytes per call", p.name, small)
			}
			if !p.counted {
				return
			}
			for k, call := range calls {
				if allocs := testing.AllocsPerRun(100, call); allocs > 1+workers {
					t.Errorf("%s at two workers on %d bytes allocated %.1f times a call, want <= %d (the Report and a start per worker)",
						p.name, len(images[k]), allocs, 1+workers)
				}
			}
		})
	}
}

// maxDeltaRoundAllocs bounds a steady-state one-worker delta round: its
// Report. The configuration key is built on the stack, and the dirty
// set and re-parse list are scratch in the DeltaState.
const maxDeltaRoundAllocs = 1

// TestDeltaRoundAllocs pins the steady-state allocation behaviour of
// VerifyDelta: after one warm-up round (which sizes the state's
// scratch), a one-chunk edit round allocates at most
// maxDeltaRoundAllocs objects, and the same number on an image eight
// times larger.
func TestDeltaRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the bound only holds in normal builds")
	}
	c := checker(t)
	// Pad to a chunk multiple so tiles repeat compliantly (direct-jump
	// displacements are relative, so each copy's targets stay inside it).
	tile := cacheImage(t, 15, 60000)
	tile = append(tile, bytes.Repeat([]byte{0x90}, (deltaChunk-len(tile)%deltaChunk)%deltaChunk)...)
	opts := core.VerifyOptions{Workers: 1}
	edit := []core.Range{{Off: deltaChunk + 1024, Len: 64}}
	var perSize []float64
	for _, copies := range []int{1, 8} {
		img := bytes.Repeat(tile, copies)
		_, state, err := c.VerifyDeltaWith(img, nil, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		round := func() {
			rep, next, err := c.VerifyDeltaWith(img, edit, state, opts)
			if err != nil || !rep.Safe {
				t.Fatalf("delta round over %d tiles: safe=%v err=%v", copies, rep != nil && rep.Safe, err)
			}
			state = next
		}
		round()
		allocs := testing.AllocsPerRun(50, round)
		if allocs > maxDeltaRoundAllocs {
			t.Errorf("delta round over %d tiles allocated %.1f times, want <= %d", copies, allocs, maxDeltaRoundAllocs)
		}
		perSize = append(perSize, allocs)
	}
	if perSize[0] != perSize[1] {
		t.Errorf("delta round allocations grow with the image: %v", perSize)
	}
}

// liveHeap is the live heap after two collections: the first only
// moves pooled objects to the pools' victim caches.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestDeltaStateFootprint pins what a DeltaState retains between
// rounds: the packed boundary bitmap (size/8 bytes), the per-shard
// results and their cross-shard jump targets. The image tiles one
// generated unit padded to a shard, so every jump lands in its own
// shard and nothing else is retained; the live heap with the state
// alive, less the live heap with it dropped, must stay within size/6.
// A second bitmap, or the capacity of the in-shard targets, shows here.
func TestDeltaStateFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the bound only holds in normal builds")
	}
	c := checker(t)
	unit, err := nacl.NewGenerator(15).Random(3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(unit) > core.ShardBytes {
		t.Fatalf("unit of %d bytes does not fit a %d-byte shard", len(unit), core.ShardBytes)
	}
	unit = append(unit, bytes.Repeat([]byte{0x90}, core.ShardBytes-len(unit))...)
	const size = 4 << 20
	img := bytes.Repeat(unit, size/core.ShardBytes)
	rep, state, err := c.VerifyDeltaWith(img, nil, nil, core.VerifyOptions{Workers: 1})
	if err != nil || !rep.Safe {
		t.Fatalf("tiled image: safe=%v err=%v", rep != nil && rep.Safe, err)
	}
	with := liveHeap()
	runtime.KeepAlive(state)
	without := liveHeap()
	runtime.KeepAlive(img)
	retained := with - without
	if retained > size/6 {
		t.Errorf("a DeltaState over %d bytes retains %d bytes (%.3f x size), want <= size/6", size, retained, float64(retained)/size)
	} else {
		t.Logf("a DeltaState over %d bytes retains %d bytes (%.3f x size)", size, retained, float64(retained)/size)
	}
}

// maxRejectedVerifyFootprint bounds the bytes one VerifyWith of a
// heavily rejected image allocates: its Report with the capped
// violations, and stage 2's working set.
const maxRejectedVerifyFootprint = 1 << 20

// TestRejectedVerifyFootprint pins the cost of diagnosing an image that
// violates everywhere: a 4 MiB NOP image with an HLT at every shard
// start leaves 130,816 bundle boundaries unreached, but the report keeps
// 64 violations, so stage 2 builds the 256 shard-local ones and only the
// first 64 of the rest. The mean bytes allocated per one-worker
// VerifyWith stay within maxRejectedVerifyFootprint; a stage 2 that
// builds a violation per unreached boundary allocates about 50 MB.
func TestRejectedVerifyFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the bound only holds in normal builds")
	}
	c := checker(t)
	img := bytes.Repeat([]byte{0x90}, 4<<20)
	for s := 0; s < len(img); s += core.ShardBytes {
		img[s] = 0xf4 // HLT
	}
	opts := core.VerifyOptions{Workers: 1}
	if rep := c.VerifyWith(img, opts); rep.Safe || rep.Total != len(img)/core.BundleSize {
		t.Fatalf("HLT image: safe=%v total=%d, want rejected with %d violations", rep.Safe, rep.Total, len(img)/core.BundleSize)
	}
	const n = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c.VerifyWith(img, opts)
	}
	runtime.ReadMemStats(&after)
	if mean := (after.TotalAlloc - before.TotalAlloc) / n; mean > maxRejectedVerifyFootprint {
		t.Errorf("VerifyWith of the HLT image allocated %d bytes per call, want <= %d", mean, maxRejectedVerifyFootprint)
	} else {
		t.Logf("VerifyWith of the HLT image allocated %d bytes per call", mean)
	}
}

// maxCheckerFootprint bounds the bytes one NewCheckerFromTables call on
// the embedded bundle allocates: the loaded tables, the product check's
// working set and the derived restart-closed and flat tables.
const maxCheckerFootprint = 512 << 10

// TestNewCheckerFootprint pins the cost of constructing a checker from
// the embedded bundle: after one warm construction, the mean bytes
// allocated per NewCheckerFromTables over ten constructions stay within
// maxCheckerFootprint. A derived table that creeps back into the
// constructor shows here.
func TestNewCheckerFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the bound only holds in normal builds")
	}
	bundle := core.EmbeddedTableBytes()
	build := func() {
		if _, err := core.NewCheckerFromTables(bytes.NewReader(bundle)); err != nil {
			t.Fatal(err)
		}
	}
	build()
	const n = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	if mean := (after.TotalAlloc - before.TotalAlloc) / n; mean > maxCheckerFootprint {
		t.Errorf("NewCheckerFromTables allocated %d bytes per construction, want <= %d", mean, maxCheckerFootprint)
	} else {
		t.Logf("NewCheckerFromTables allocated %d bytes per construction", mean)
	}
}

// maxCompiledPolicyFootprint bounds the live heap one compiled policy
// keeps in the compile memo: its three automata's tables and flags, and
// the few grammar nodes its safe grammar adds over the shared
// instruction forms.
const maxCompiledPolicyFootprint = 256 << 10

// TestCompiledPolicyFootprint pins what policy.Compile retains: once
// the instruction-form classification is memoized, compiling a spec the
// memo has not seen must leave less than maxCompiledPolicyFootprint of
// live heap. The derivative regexes the DFA construction walks are
// garbage once the tables exist; an automaton that keeps its states'
// regexes holds about half a megabyte of them for the process's life.
func TestCompiledPolicyFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the bound only holds in normal builds")
	}
	if _, err := policy.Compile(policy.NaCl16()); err != nil {
		t.Fatal(err)
	}
	// A guard cutoff no other spec uses gives a fingerprint of its own.
	spec := policy.NaCl16()
	spec.Name, spec.GuardCutoff = "footprint", 0x7ff0
	before := liveHeap()
	com, err := policy.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	retained := liveHeap() - before
	runtime.KeepAlive(com)
	if retained >= maxCompiledPolicyFootprint {
		t.Errorf("compiling %s retained %d bytes, want < %d", spec.Name, retained, maxCompiledPolicyFootprint)
	} else {
		t.Logf("compiling %s retained %d bytes", spec.Name, retained)
	}
}
