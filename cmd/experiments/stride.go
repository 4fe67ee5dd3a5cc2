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

// minVsReference is the same-run floor on default/reference
// throughput: the speed the deleted fused scalar walk had over the
// reference loop (1.18-1.20x on a 2-vCPU Xeon), so the default must stay
// at least that far ahead of the loop it rewinds to.
const minVsReference = 1.2

// benchStride is the bandwidth-bound scanning benchmark: the default
// four-lane walk and the content-addressed verdict cache, measured
// against the Figure-5 reference loop and the recorded fused baseline.
// It prints the table, writes BENCH_stride.json (host-stamped), and —
// the CI perf smoke — exits nonzero under -quick if the default engine
// is not at least minVsReference times the reference loop measured in
// the same run, or if the lean Verify path allocates.
func benchStride() {
	header("stride", "four-lane walk + verdict cache (extension)",
		"beyond the paper: interleaved lane walks and content-addressed re-verification")

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

	ref := engineRow("reference", core.VerifyOptions{Workers: 1, Engine: core.EngineReference})
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
	fusedVsReference := fused.MBPerS / ref.MBPerS

	out := struct {
		GeneratedBy       string   `json:"generated_by"`
		Quick             bool     `json:"quick"`
		Host              hostMeta `json:"host"`
		Bytes             int      `json:"bytes"`
		Rounds            int      `json:"rounds"`
		Rows              []row    `json:"results"`
		RecordedFusedMBs  float64  `json:"recorded_fused_mb_per_s"`
		FusedVsRecorded   float64  `json:"fused_vs_recorded"`
		FusedVsReference  float64  `json:"fused_vs_reference"`
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
		FusedVsReference:  fusedVsReference,
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
	fmt.Printf("   wrote BENCH_stride.json (fused %.1f MB/s = %.2fx recorded %.1f; fused/reference %.2fx; keyed warm %.0fx)\n",
		fused.MBPerS, ratioVsRecorded, recordedBaseline, fusedVsReference, keyedSpeedup)

	ok := fusedVsReference >= minVsReference && leanAllocs == 0
	full := ok && ratioVsRecorded >= 1.25 && keyedSpeedup > 100
	if *quick {
		// CI perf smoke: the invariants that hold on any machine at any
		// load — the default engine well ahead of the reference loop it
		// rewinds to, and the lean path allocation-free. Throughput-vs-
		// recorded is a full-run criterion (the recorded number belongs
		// to a specific host, and quick images are too small for stable
		// MB/s).
		fmt.Printf("   verdict: %s (quick: default >= %.1fx reference same-run, lean Verify 0 allocs)\n", pass(ok), minVsReference)
		if !ok {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("   verdict: %s (fused >= 1.25x recorded baseline, fused >= %.1fx reference, keyed warm > 100x, 0 allocs)\n",
		pass(full), minVsReference)
}
