// Command dfagen performs the paper's offline table generation (§3.2):
// it runs the runtime policy compiler (internal/policy) on a policy
// spec — the default NaCl policy unless -spec names a JSON spec file —
// reports the DFA sizes, and can emit the tables as a loadable bundle
// or as Go source — the analogue of generating the trusted C arrays
// from the verified Coq definitions.
//
// The repository's embedded bundle is regenerated with
//
//	go run ./cmd/dfagen -o internal/core/rocksalt_tables.bin
//
// Every bundle is RSLT5: the policy's engine parameters (bundle size,
// mask length, guard cutoff), the fused product automaton and the three
// component DFAs — nothing a loader can derive — so the default NaCl
// policy and compiled specs share one format. Before writing a bundle,
// dfagen loads it back through core.NewCheckerFromTables, so it never
// emits one the loader's checks refuse.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"rocksalt/internal/core"
	"rocksalt/internal/policy"
)

func main() {
	emit := flag.Bool("emit", false, "emit the DFA tables as Go source on stdout")
	out := flag.String("o", "", "write a binary table bundle (loadable by rocksalt -tables)")
	specPath := flag.String("spec", "", "compile this JSON policy spec instead of the default NaCl policy")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "dfagen:", err)
		os.Exit(1)
	}

	spec := policy.NaCl()
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fail(err)
		}
		if spec, err = policy.ParseSpec(data); err != nil {
			fail(err)
		}
	}
	start := time.Now()
	com, err := policy.Compile(spec)
	if err != nil {
		fail(err)
	}
	defNorm, err := policy.NaCl().Normalize()
	if err != nil {
		fail(err)
	}
	defaultPolicy := com.Fingerprint == defNorm.Fingerprint()
	build := time.Since(start)
	dfas := &core.DFASet{
		MaskedJump:    com.MaskedJump,
		NoControlFlow: com.NoControlFlow,
		DirectJump:    com.DirectJump,
	}

	stats := map[string]int{
		"MaskedJump":    com.MaskedJump.NumStates(),
		"NoControlFlow": com.NoControlFlow.NumStates(),
		"DirectJump":    com.DirectJump.NumStates(),
	}
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("policy %q DFAs generated in %v\n", com.Spec.Name, build)
	total := 0
	for _, n := range names {
		fmt.Printf("  %-14s %3d states (%5d table bytes)\n", n, stats[n], stats[n]*256*2)
		total += stats[n]
	}
	fmt.Printf("  %-14s %3d states total\n", "all", total)
	if defaultPolicy {
		fmt.Println("  (paper: largest checker DFA has 61 states; no minimization needed)")
	}

	start = time.Now()
	_, _, fusedTable, err := policy.FuseProduct(com.MaskedJump, com.NoControlFlow, com.DirectJump)
	if err != nil {
		fail(err)
	}
	n := len(fusedTable)
	fmt.Printf("fused product automaton: %d states (%d table bytes), built in %v\n",
		n, n*512+n, time.Since(start))

	if *out != "" {
		info := core.PolicyInfo{
			Name:        com.Spec.Name,
			BundleSize:  com.Spec.BundleSize,
			MaskLen:     com.Spec.MaskLen(),
			GuardCutoff: com.Spec.GuardCutoff,
		}
		var bundle bytes.Buffer
		if err := dfas.WriteTables(&bundle, info, com.Spec.AlignedCalls); err != nil {
			fail(err)
		}
		loaded, err := core.NewCheckerFromTables(bytes.NewReader(bundle.Bytes()))
		if err != nil {
			fail(fmt.Errorf("the bundle does not load back: %w", err))
		}
		if err := os.WriteFile(*out, bundle.Bytes(), 0o644); err != nil {
			fail(err)
		}
		st, err := os.Stat(*out)
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%s, %d bytes)\n", *out, loaded.TableBundle(), st.Size())
	}

	if *emit {
		fmt.Println()
		emitGo("maskedJump", dfas.MaskedJump.Table, dfas.MaskedJump.Accepts, dfas.MaskedJump.Rejects)
		emitGo("noControlFlow", dfas.NoControlFlow.Table, dfas.NoControlFlow.Accepts, dfas.NoControlFlow.Rejects)
		emitGo("directJump", dfas.DirectJump.Table, dfas.DirectJump.Accepts, dfas.DirectJump.Rejects)
	}
}

func emitGo(name string, table [][256]uint16, accepts, rejects []bool) {
	fmt.Printf("var %sAccepts = %#v\n", name, accepts)
	fmt.Printf("var %sRejects = %#v\n", name, rejects)
	fmt.Printf("var %sTable = [][256]uint16{\n", name)
	for _, row := range table {
		fmt.Print("\t{")
		for i, v := range row {
			if i > 0 {
				fmt.Print(",")
			}
			fmt.Print(v)
		}
		fmt.Println("},")
	}
	fmt.Println("}")
}
