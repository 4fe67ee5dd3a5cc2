package core_test

import (
	"bytes"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/flight"
	"rocksalt/internal/nacl"
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

// maxDeltaRoundAllocs bounds a steady-state delta round: its Report and
// the encoding buffers of the configuration key the round hashes. The
// dirty set and re-parse list are scratch in the DeltaState and must
// not be among them.
const maxDeltaRoundAllocs = 3

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
