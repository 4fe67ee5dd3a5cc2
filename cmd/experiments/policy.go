package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/policy"
)

// minSixteenVsReference is the full-run floor on the 16-byte presets'
// lane/reference throughput: 1.5x the deleted fused scalar walk, which
// ran 1.18-1.20x the reference loop on a 2-vCPU Xeon.
const minSixteenVsReference = 1.8

// benchPolicy measures the runtime policy compiler: the per-process
// classification of the decoder's instruction forms that every spec
// shares, cold compile time per spec after it (grammars → derivative
// DFAs → fuse → compact), memoized re-compile time, and verify
// throughput per compiled policy on a policy-compliant image. It
// prints the table, writes BENCH_policy.json (host-stamped), and — the
// CI smoke — exits nonzero under -quick if any policy fails to verify
// its own corpus, if the runtime-compiled default diverges from the
// embedded bundle, or if the lean Verify path on a compiled policy
// allocates.
func benchPolicy() {
	header("policy", "runtime policy compiler (extension)",
		"beyond the paper: the grammar→DFA pipeline as a library, driven by declarative policy specs")

	specs := []policy.Spec{policy.NaCl(), policy.NaCl16(), policy.REINS()}
	n := 400000
	rounds := 30
	if *quick {
		n, rounds = 40000, 8
	}

	bestOf := func(f func()) time.Duration {
		f()
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
		Name          string  `json:"name"`
		CompileNs     float64 `json:"compile_ns"`
		WarmCompileNs float64 `json:"warm_compile_ns"`
		FusedStates   int     `json:"fused_states"`
		VerifyNs      float64 `json:"verify_ns"`
		MBPerS        float64 `json:"mb_per_s"`
		// ReferenceMBPerS is the same-run Figure-5 loop, the oracle the
		// lanes rewind to; VsReference is the lanes' speedup over it.
		ReferenceMBPerS float64 `json:"reference_mb_per_s"`
		VsReference     float64 `json:"vs_reference"`
	}
	// The instruction forms are classified once per process and shared
	// by every spec, so time that on its own: the cold compiles below
	// then all measure the same work, not first-spec-pays-all.
	norm, err := policy.NaCl().Normalize()
	if err != nil {
		panic(err)
	}
	start := time.Now()
	policy.NoControlFlowGrammar(norm)
	classify := time.Since(start)
	fmt.Printf("   %-10s classify instruction forms %8.1f ms (once per process, shared by every spec)\n",
		"shared", float64(classify.Nanoseconds())/1e6)

	var rows []row
	allVerified, nonDefaultFast := true, true
	var defaultMatchesEmbedded bool
	var leanAllocs float64

	for i, spec := range specs {
		start := time.Now()
		com, err := policy.Compile(spec)
		if err != nil {
			panic(err)
		}
		compile := time.Since(start)
		warm := bestOf(func() {
			if _, err := policy.Compile(spec); err != nil {
				panic(err)
			}
		})

		_, _, fusedTable, err := policy.FuseProduct(com.MaskedJump, com.NoControlFlow, com.DirectJump)
		if err != nil {
			panic(err)
		}

		checker, err := core.NewCheckerFromPolicy(com)
		if err != nil {
			panic(err)
		}
		prof, err := nacl.ProfileForSpec(com.Spec)
		if err != nil {
			panic(err)
		}
		img, err := nacl.NewGeneratorFor(int64(21+i), prof, com.SafeGrammar).Random(n)
		if err != nil {
			panic(err)
		}
		if !checker.Verify(img) {
			fmt.Printf("   %-10s REJECTED its own compliant image\n", com.Spec.Name)
			allVerified = false
			continue
		}
		mb := float64(len(img)) / 1e6
		d := bestOf(func() { checker.Verify(img) })
		ropts := core.VerifyOptions{Workers: 1, Engine: core.EngineReference}
		dr := bestOf(func() { checker.VerifyWith(img, ropts) })
		r := row{
			Name:            com.Spec.Name,
			CompileNs:       float64(compile.Nanoseconds()),
			WarmCompileNs:   float64(warm.Nanoseconds()),
			FusedStates:     len(fusedTable),
			VerifyNs:        float64(d.Nanoseconds()),
			MBPerS:          mb / d.Seconds(),
			ReferenceMBPerS: mb / dr.Seconds(),
		}
		r.VsReference = r.MBPerS / r.ReferenceMBPerS
		rows = append(rows, r)
		fmt.Printf("   %-10s compile %8.1f ms (warm %6.0f ns), fused %3d states, verify %9.1f MB/s (%.2fx reference %.1f)\n",
			r.Name, r.CompileNs/1e6, r.WarmCompileNs, r.FusedStates, r.MBPerS, r.VsReference, r.ReferenceMBPerS)
		if i > 0 && r.VsReference < minSixteenVsReference {
			// The non-default (16-byte-bundle) policies must clear the
			// reference loop by a wide margin: the lanes cover their
			// bundles as they do the default's.
			nonDefaultFast = false
		}

		if i == 0 {
			// Keystone: the runtime-compiled default must reproduce the
			// embedded bundle byte for byte.
			set := &core.DFASet{
				MaskedJump:    com.MaskedJump,
				NoControlFlow: com.NoControlFlow,
				DirectJump:    com.DirectJump,
			}
			var buf bytes.Buffer
			if err := set.WriteTables(&buf, checker.PolicyInfo(), checker.AlignedCalls); err != nil {
				panic(err)
			}
			defaultMatchesEmbedded = bytes.Equal(buf.Bytes(), core.EmbeddedTableBytes())
			fmt.Printf("   %-10s runtime-compiled tables == embedded bundle: %v\n", r.Name, defaultMatchesEmbedded)
		}
		if i == 1 {
			// The lean boolean path must stay allocation-free on compiled
			// (non-default-parameter) policies too.
			leanAllocs = testing.AllocsPerRun(10, func() { checker.Verify(img) })
			fmt.Printf("   %-10s lean Verify %.1f allocs/op\n", r.Name, leanAllocs)
		}
	}

	out := struct {
		GeneratedBy            string   `json:"generated_by"`
		Quick                  bool     `json:"quick"`
		Host                   hostMeta `json:"host"`
		Bytes                  int      `json:"bytes"`
		Rounds                 int      `json:"rounds"`
		ClassifyNs             float64  `json:"classify_ns"`
		Rows                   []row    `json:"results"`
		DefaultMatchesEmbedded bool     `json:"default_matches_embedded"`
		LeanAllocsPerOp        float64  `json:"lean_allocs_per_op"`
	}{
		GeneratedBy:            "go run ./cmd/experiments -run policy",
		Quick:                  *quick,
		Host:                   hostInfo(),
		Bytes:                  n,
		Rounds:                 rounds,
		ClassifyNs:             float64(classify.Nanoseconds()),
		Rows:                   rows,
		DefaultMatchesEmbedded: defaultMatchesEmbedded,
		LeanAllocsPerOp:        leanAllocs,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile("BENCH_policy.json", append(data, '\n'), 0o644); err != nil {
		panic(err)
	}

	ok := allVerified && defaultMatchesEmbedded && leanAllocs == 0 && len(rows) == len(specs)
	fmt.Printf("   wrote BENCH_policy.json (%d policies)\n", len(rows))
	if *quick {
		// Quick images are too small for stable MB/s, so the
		// non-default-bundle throughput criterion is full-run only.
		fmt.Printf("   verdict: %s (every policy verifies its corpus, default == embedded bundle, lean Verify 0 allocs)\n",
			pass(ok))
		if !ok {
			os.Exit(1)
		}
		return
	}
	fmt.Printf("   verdict: %s (corpus verified, default == embedded, 0 allocs, 16-byte policies >= %.1fx their reference loop)\n",
		pass(ok && nonDefaultFast), minSixteenVsReference)
}
