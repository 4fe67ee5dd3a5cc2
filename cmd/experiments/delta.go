package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
)

// deltaChunk mirrors the engine's retained-chunk granularity (64 KiB,
// four shards); the benchmark aligns its tiled image to it so the
// expected reparse counts are exact.
const deltaChunk = 64 << 10

// benchDelta measures incremental re-verification: the cost of a
// VerifyDelta round as a function of edit size on a large image,
// against the cold full verify it replaces. It cross-checks every
// delta verdict against a from-scratch run on the same bytes, times
// the bounded-window streaming verifier on the same image, writes
// host-stamped BENCH_delta.json with the headline delta_speedup (4 KiB
// edit vs cold full verify), and under -quick exits nonzero if any
// machine-invariant criterion fails.
func benchDelta() {
	header("delta", "incremental re-verification cost vs edit size (extension)",
		"beyond the paper: retained stage-1 state makes re-verify O(changed bytes), not O(image)")

	c, err := core.NewChecker()
	if err != nil {
		panic(err)
	}
	target := 64 << 20
	genInsns := 180000
	rounds := 12
	if *quick {
		target, genInsns, rounds = 4<<20, 30000, 5
	}

	// A large compliant image, built by tiling one generated tile padded
	// to a chunk multiple with single-byte nops. Tiling preserves
	// compliance: direct-jump displacements are relative, so every
	// target shifts with its copy and stays inside it; bundle phase is
	// preserved because the tile is a bundle multiple; nop bytes are
	// boundaries everywhere.
	tile, err := nacl.NewGenerator(11).Random(genInsns)
	if err != nil {
		panic(err)
	}
	if pad := (deltaChunk - len(tile)%deltaChunk) % deltaChunk; pad > 0 {
		tile = append(tile, bytes.Repeat([]byte{0x90}, pad)...)
	}
	copies := target / len(tile)
	if copies < 1 {
		copies = 1
	}
	pristine := bytes.Repeat(tile, copies)
	if !c.Verify(pristine) {
		panic("tiled benchmark image rejected")
	}
	mb := float64(len(pristine)) / 1e6
	fmt.Printf("   image: %d bytes (%d x %d-byte tile), %d chunks\n",
		len(pristine), copies, len(tile), len(pristine)/deltaChunk)

	sameReport := func(a, b *core.Report) bool {
		return a.Safe == b.Safe && a.Outcome == b.Outcome && a.Total == b.Total &&
			reflect.DeepEqual(a.Violations, b.Violations)
	}

	sopts := core.VerifyOptions{Workers: 1}
	cold := bestOf(rounds, func() { c.VerifyWith(pristine, sopts) })
	fmt.Printf("   %-26s %12.2f ms %9.1f MB/s\n", "cold full verify", float64(cold.Nanoseconds())/1e6, mb/cold.Seconds())

	// Streaming: the same image through the bounded 512 KiB window, on
	// one worker like the cold row above.
	ropts := core.VerifyOptions{StreamSize: int64(len(pristine)), Workers: 1}
	streamD := bestOf(rounds, func() {
		rep, rerr := c.VerifyReader(bytes.NewReader(pristine), ropts)
		if rerr != nil || !rep.Safe {
			panic("streaming verify disagreed on the pristine image")
		}
	})
	fmt.Printf("   %-26s %12.2f ms %9.1f MB/s\n", "streaming (512 KiB window)", float64(streamD.Nanoseconds())/1e6, mb/streamD.Seconds())

	// Build the initial delta state (a full parse that retains its
	// artifacts), then measure steady-state rounds per edit size.
	img := append([]byte(nil), pristine...)
	rep0, state, err := c.VerifyDeltaWith(img, nil, nil, sopts)
	if err != nil {
		panic(err)
	}
	if !rep0.Safe {
		panic("state-building delta round rejected the image")
	}

	type row struct {
		EditBytes      int     `json:"edit_bytes"`
		DeltaNs        float64 `json:"delta_ns"`
		Speedup        float64 `json:"speedup"`
		ChunksReparsed int64   `json:"chunks_reparsed"`
		BytesReparsed  int64   `json:"bytes_reparsed"`
		MatchesFull    bool    `json:"matches_full"`
	}
	var rows []row
	allEqual := true
	editSizes := []int{1, 64, 4096, 65536, 1 << 20}
	for _, e := range editSizes {
		if e > len(img)/2 {
			continue
		}
		off := (len(img) / 2) &^ 4095
		for i := 0; i < e; i++ {
			img[off+i] = 0x90
		}
		ranges := []core.Range{{Off: off, Len: e}}
		var rep *core.Report
		rep, state, err = c.VerifyDeltaWith(img, ranges, state, sopts)
		if err != nil {
			panic(err)
		}
		full := c.VerifyWith(img, sopts)
		equal := sameReport(rep, full)
		allEqual = allEqual && equal
		d := bestOf(rounds, func() {
			rep, state, err = c.VerifyDeltaWith(img, ranges, state, sopts)
			if err != nil {
				panic(err)
			}
		})
		r := row{
			EditBytes:      e,
			DeltaNs:        float64(d.Nanoseconds()),
			Speedup:        float64(cold.Nanoseconds()) / float64(d.Nanoseconds()),
			ChunksReparsed: rep.Stats.DeltaChunksReparsed,
			BytesReparsed:  rep.Stats.DeltaBytesReparsed,
			MatchesFull:    equal,
		}
		rows = append(rows, r)
		fmt.Printf("   edit %8d B: %10.0f ns  %7.1fx vs cold  (%d chunks, %d bytes reparsed, full-match %v)\n",
			r.EditBytes, r.DeltaNs, r.Speedup, r.ChunksReparsed, r.BytesReparsed, equal)
	}

	speedup := 0.0
	oneByteChunks := int64(0)
	for _, r := range rows {
		if r.EditBytes == 4096 {
			speedup = r.Speedup
		}
		if r.EditBytes == 1 {
			oneByteChunks = r.ChunksReparsed
		}
	}

	out := struct {
		GeneratedBy  string   `json:"generated_by"`
		Quick        bool     `json:"quick"`
		Host         hostMeta `json:"host"`
		Bytes        int      `json:"bytes"`
		Rounds       int      `json:"rounds"`
		ColdNs       float64  `json:"cold_full_ns"`
		ColdMBPerS   float64  `json:"cold_full_mb_per_s"`
		StreamNs     float64  `json:"stream_ns"`
		StreamMBPerS float64  `json:"stream_mb_per_s"`
		Rows         []row    `json:"results"`
		DeltaSpeedup float64  `json:"delta_speedup"`
	}{
		GeneratedBy:  "go run ./cmd/experiments -run delta",
		Quick:        *quick,
		Host:         hostInfo(),
		Bytes:        len(pristine),
		Rounds:       rounds,
		ColdNs:       float64(cold.Nanoseconds()),
		ColdMBPerS:   mb / cold.Seconds(),
		StreamNs:     float64(streamD.Nanoseconds()),
		StreamMBPerS: mb / streamD.Seconds(),
		Rows:         rows,
		DeltaSpeedup: speedup,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile("BENCH_delta.json", append(data, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("   wrote BENCH_delta.json (4 KiB edit on %d MiB image: %.0fx vs cold full verify)\n",
		len(pristine)>>20, speedup)

	// Machine-invariant criteria: every delta verdict byte-identical to
	// the full run, and a 1-byte edit reparsing at most its chunk and a
	// possible overhang neighbor (the final chunk replays like any
	// other).
	ok := allEqual && oneByteChunks > 0 && oneByteChunks <= 2
	if *quick {
		fmt.Printf("   verdict: %s (quick: delta == full on every edit, 1 B edit <= 2 chunks)\n", pass(ok))
		if !ok {
			os.Exit(1)
		}
		return
	}
	full := ok && speedup >= 50
	fmt.Printf("   verdict: %s (delta == full, 1 B edit <= 2 chunks, 4 KiB edit >= 50x cold)\n", pass(full))
}
