package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/vcache"
)

// benchStride is the bandwidth-bound scanning benchmark: the byte-class
// lanes and SWAR engine work and the content-addressed verdict cache,
// measured against the recorded fused baseline. It prints the table,
// writes BENCH_stride.json (host-stamped), and — the CI perf smoke —
// exits nonzero under -quick if the lanes or SWAR engine is slower
// than the scalar-fused walk measured in the same run, or if the lean
// Verify path allocates.
func benchStride() {
	header("stride", "lanes + SWAR engines + verdict cache (extension)",
		"beyond the paper: byte-class compaction, multi-byte SWAR stepping, and content-addressed re-verification")

	c, err := core.NewChecker()
	if err != nil {
		panic(err)
	}
	n := 400000
	rounds := 30
	if *quick {
		n, rounds = 40000, 8
	}
	img, err := nacl.NewGenerator(3).Random(n)
	if err != nil {
		panic(err)
	}
	if !c.Verify(img) {
		panic("benchmark image rejected")
	}
	mb := float64(len(img)) / 1e6

	// Best-of-N single-run timings: throughput is the metric, so the
	// minimum (the run least disturbed by the host) is the honest
	// estimate on shared machines; the JSON records how many rounds.
	bestOf := func(f func()) time.Duration {
		f() // warm tables, scratch pool, page cache
		best := time.Duration(1<<63 - 1)
		for i := 0; i < rounds; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}

	type row struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
		MBPerS  float64 `json:"mb_per_s"`
	}
	var rows []row
	engineRow := func(name string, opts core.VerifyOptions) row {
		if !c.VerifyWith(img, opts).Safe {
			panic(name + " rejected the benchmark image")
		}
		d := bestOf(func() { c.VerifyWith(img, opts) })
		r := row{Name: name, NsPerOp: float64(d.Nanoseconds()), MBPerS: mb / d.Seconds()}
		rows = append(rows, r)
		fmt.Printf("   %-22s %12.0f ns/op %9.1f MB/s\n", r.Name, r.NsPerOp, r.MBPerS)
		return r
	}

	scalar := engineRow("fused-scalar", core.VerifyOptions{Workers: 1, Engine: core.EngineFusedScalar})
	lanes := engineRow("lanes (forced)", core.VerifyOptions{Workers: 1, Engine: core.EngineLanes})
	swar := engineRow("swar (forced)", core.VerifyOptions{Workers: 1, Engine: core.EngineSWAR})
	fused := engineRow("fused (default)", core.VerifyOptions{Workers: 1})

	// The lean boolean path must stay allocation-free with the cache off.
	leanAllocs := testing.AllocsPerRun(10, func() { c.Verify(img) })
	fmt.Printf("   %-22s %27.1f allocs/op\n", "Verify (lean, no cache)", leanAllocs)

	// Verdict cache: cold (hash + parse + store), warm with rehash (hash
	// + whole-image hit), warm keyed (lookup only — the caller holds the
	// key from a prior Report).
	cache := vcache.New(256 << 20)
	copts := core.VerifyOptions{Workers: 1, Cache: cache}
	rep := c.VerifyWith(img, copts)
	if !rep.Safe || rep.CacheKey == "" {
		panic("cached verification failed")
	}
	key, err := vcache.ParseKey(rep.CacheKey)
	if err != nil {
		panic(err)
	}
	warmRehash := bestOf(func() {
		if c.VerifyWith(img, copts).Stats.CacheWholeHits != 1 {
			panic("warm run missed the cache")
		}
	})
	kopts := copts
	kopts.CacheKey = &key
	warmKeyed := bestOf(func() {
		if c.VerifyWith(img, kopts).Stats.CacheWholeHits != 1 {
			panic("keyed run missed the cache")
		}
	})
	uncachedNs := fused.NsPerOp
	rehashSpeedup := uncachedNs / float64(warmRehash.Nanoseconds())
	keyedSpeedup := uncachedNs / float64(warmKeyed.Nanoseconds())
	fmt.Printf("   warm re-verify (rehash) %v  %.1fx vs uncached\n", warmRehash, rehashSpeedup)
	fmt.Printf("   warm re-verify (keyed)  %v  %.0fx vs uncached\n", warmKeyed, keyedSpeedup)

	// The recorded sequential fused baseline this work is judged against
	// (BENCH_fused.json's E2 number from the fusion PR's reference run);
	// re-read when present so a re-benched file carries through.
	recordedBaseline := 246.29
	if data, rerr := os.ReadFile("BENCH_fused.json"); rerr == nil {
		var prior struct {
			FusedMBs float64 `json:"fused_mb_per_s"`
		}
		if json.Unmarshal(data, &prior) == nil && prior.FusedMBs > 0 {
			recordedBaseline = prior.FusedMBs
		}
	}
	ratioVsRecorded := fused.MBPerS / recordedBaseline
	lanesVsScalar := lanes.MBPerS / scalar.MBPerS
	swarVsRecorded := swar.MBPerS / recordedBaseline
	swarVsScalar := swar.MBPerS / scalar.MBPerS
	swarVsLanes := swar.MBPerS / lanes.MBPerS

	out := struct {
		GeneratedBy       string   `json:"generated_by"`
		Quick             bool     `json:"quick"`
		Host              hostMeta `json:"host"`
		Bytes             int      `json:"bytes"`
		Rounds            int      `json:"rounds"`
		Rows              []row    `json:"results"`
		RecordedFusedMBs  float64  `json:"recorded_fused_mb_per_s"`
		FusedVsRecorded   float64  `json:"fused_vs_recorded"`
		LanesVsScalar     float64  `json:"lanes_vs_scalar"`
		SWARVsRecorded    float64  `json:"swar_vs_recorded"`
		SWARVsScalar      float64  `json:"swar_vs_scalar"`
		SWARVsLanes       float64  `json:"swar_vs_lanes"`
		LeanAllocsPerOp   float64  `json:"lean_allocs_per_op"`
		WarmRehashNs      float64  `json:"warm_rehash_ns"`
		WarmRehashSpeedup float64  `json:"warm_rehash_speedup"`
		WarmKeyedNs       float64  `json:"warm_keyed_ns"`
		WarmKeyedSpeedup  float64  `json:"warm_keyed_speedup"`
	}{
		GeneratedBy:       "go run ./cmd/experiments -run stride",
		Quick:             *quick,
		Host:              hostInfo(),
		Bytes:             len(img),
		Rounds:            rounds,
		Rows:              rows,
		RecordedFusedMBs:  recordedBaseline,
		FusedVsRecorded:   ratioVsRecorded,
		LanesVsScalar:     lanesVsScalar,
		SWARVsRecorded:    swarVsRecorded,
		SWARVsScalar:      swarVsScalar,
		SWARVsLanes:       swarVsLanes,
		LeanAllocsPerOp:   leanAllocs,
		WarmRehashNs:      float64(warmRehash.Nanoseconds()),
		WarmRehashSpeedup: rehashSpeedup,
		WarmKeyedNs:       float64(warmKeyed.Nanoseconds()),
		WarmKeyedSpeedup:  keyedSpeedup,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile("BENCH_stride.json", append(data, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("   wrote BENCH_stride.json (fused %.1f MB/s = %.2fx recorded %.1f; swar %.2fx recorded; lanes/scalar %.2fx; keyed warm %.0fx)\n",
		fused.MBPerS, ratioVsRecorded, recordedBaseline, swarVsRecorded, lanesVsScalar, keyedSpeedup)

	ok := lanesVsScalar >= 1.0 && swarVsScalar >= 1.0 && leanAllocs == 0
	full := ok && ratioVsRecorded >= 1.25 && swarVsRecorded >= 1.25 && keyedSpeedup > 100
	if *quick {
		// CI perf smoke: the invariants that hold on any machine at any
		// load — lanes and SWAR no slower than the scalar walk they
		// replace, and the lean path allocation-free. Throughput-vs-
		// recorded is a full-run criterion (the recorded number belongs
		// to a specific host, and quick images are too small for stable
		// MB/s).
		fmt.Printf("   verdict: %s (quick: lanes and swar >= scalar same-run, lean Verify 0 allocs)\n", pass(ok))
		if !ok {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("   verdict: %s (fused and swar >= 1.25x recorded baseline, lanes/swar >= scalar, keyed warm > 100x, 0 allocs)\n",
		pass(full))
}
