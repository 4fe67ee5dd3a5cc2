package main

import (
	"bytes"
	"fmt"
	"time"

	"rocksalt/internal/core"
	"rocksalt/internal/policy"
)

// benchPolicy measures the runtime policy compiler: the per-process
// classification of the decoder's instruction forms that every spec
// shares, then cold compile time per spec after it (grammars →
// derivative DFAs → fuse), memoized re-compile time and the fused
// automaton's size. It also checks that the runtime-compiled default
// reproduces the embedded bundle byte for byte. Verify throughput under
// a compiled policy is bench/'s dense16 workload.
func benchPolicy() {
	header("policy", "runtime policy compiler (extension)",
		"beyond the paper: the grammar→DFA pipeline as a library, driven by declarative policy specs")

	specs := []policy.Spec{policy.NaCl(), policy.NaCl16(), policy.REINS()}
	rounds := 30
	if *quick {
		rounds = 8
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

	var defaultMatchesEmbedded bool
	for i, spec := range specs {
		start := time.Now()
		com, err := policy.Compile(spec)
		if err != nil {
			panic(err)
		}
		compile := time.Since(start)
		warm := bestOf(rounds, func() {
			if _, err := policy.Compile(spec); err != nil {
				panic(err)
			}
		})
		_, _, fusedTable, err := policy.FuseProduct(com.MaskedJump, com.NoControlFlow, com.DirectJump)
		if err != nil {
			panic(err)
		}
		fmt.Printf("   %-10s compile %8.1f ms (warm %6.0f ns), fused %3d states\n",
			com.Spec.Name, float64(compile.Nanoseconds())/1e6, float64(warm.Nanoseconds()), len(fusedTable))

		if i == 0 {
			// Keystone: the runtime-compiled default must reproduce the
			// embedded bundle byte for byte.
			checker, err := core.NewCheckerFromPolicy(com)
			if err != nil {
				panic(err)
			}
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
			fmt.Printf("   %-10s runtime-compiled tables == embedded bundle: %v\n", com.Spec.Name, defaultMatchesEmbedded)
		}
	}
	fmt.Printf("   verdict: %s (%d policies compile, default == embedded bundle)\n", pass(defaultMatchesEmbedded), len(specs))
}
