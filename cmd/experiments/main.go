// Command experiments regenerates every quantitative claim in the
// paper's evaluation (the E1–E8 index in DESIGN.md) and prints
// paper-vs-measured tables. EXPERIMENTS.md records a reference run.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"time"

	"rocksalt/internal/armor"
	"rocksalt/internal/core"
	"rocksalt/internal/faultinject"
	"rocksalt/internal/grammar"
	"rocksalt/internal/nacl"
	"rocksalt/internal/ncval"
	"rocksalt/internal/sim"
	"rocksalt/internal/tso"
	"rocksalt/internal/x86"
	"rocksalt/internal/x86/decode"
	"rocksalt/internal/x86/machine"
	"rocksalt/internal/x86/semantics"
)

var quick = flag.Bool("quick", false, "smaller workloads for a fast pass")

// experiment is one -run id and the function that runs it.
type experiment struct {
	id string
	fn func()
	// explicit experiments run only when named, never in the default
	// full pass: the campaign is a soak, not a benchmark.
	explicit bool
}

// experiments is the -run table, in the order a full pass runs it.
var experiments = []experiment{
	{"e1", e1Throughput, false},
	{"e2", e2CheckerComparison, false},
	{"e3", e3ArmorComparison, false},
	{"e4", e4DFASizes, false},
	{"e5", e5ModelValidation, false},
	{"e6", e6Agreement, false},
	{"e7", e7CheckerSize, false},
	{"e8", e8GrammarMetatheory, false},
	{"rtl", rtlStats, false},
	{"tso", tsoLitmus, false},
	{"fault", faultCampaign, false},
	{"stride", benchStride, false},
	{"policy", benchPolicy, false},
	{"scale", benchScale, false},
	{"delta", benchDelta, false},
	{"campaign", runCampaign, true},
}

// experimentIDs lists the table's ids, comma-separated, or only the
// explicit ones.
func experimentIDs(explicitOnly bool) string {
	var ids []string
	for _, e := range experiments {
		if !explicitOnly || e.explicit {
			ids = append(ids, e.id)
		}
	}
	return strings.Join(ids, ",")
}

// selectExperiments resolves a comma-separated -run list against the
// table, in table order. An empty list selects every experiment that
// is not explicit; an id the table does not hold is an error that
// names the known ones, so a stale id cannot pass by running nothing.
func selectExperiments(run string) ([]experiment, error) {
	want := map[string]bool{}
	var unknown []string
	for _, id := range strings.Split(run, ",") {
		id = strings.ToLower(strings.TrimSpace(id))
		if id == "" || want[id] {
			continue
		}
		want[id] = true
		if !slices.ContainsFunc(experiments, func(e experiment) bool { return e.id == id }) {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown -run id %s (known: %s)", strings.Join(unknown, ","), experimentIDs(false))
	}
	var sel []experiment
	for _, e := range experiments {
		if want[e.id] || (len(want) == 0 && !e.explicit) {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

func main() {
	run := flag.String("run", "", "comma-separated experiment ids ("+experimentIDs(false)+"); empty = all but "+experimentIDs(true))
	flag.Parse()

	sel, err := selectExperiments(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	for _, e := range sel {
		e.fn()
		fmt.Println()
	}
}

func header(id, title, paper string) {
	fmt.Printf("== %s: %s ==\n", strings.ToUpper(id), title)
	fmt.Printf("   paper: %s\n", paper)
}

// countInstructions uses the checker's own analysis to count matched
// units in an image.
func countInstructions(c *core.Checker, img []byte) int {
	valid, _, ok := c.Analyze(img)
	if !ok {
		return 0
	}
	n := 0
	for _, v := range valid {
		if v {
			n++
		}
	}
	return n
}

func e1Throughput() {
	header("e1", "RockSalt checking throughput",
		"RockSalt checks roughly 1M instructions per second (§1)")
	c, err := core.NewChecker()
	if err != nil {
		panic(err)
	}
	size := 400000
	if *quick {
		size = 40000
	}
	gen := nacl.NewGenerator(1)
	img, err := gen.Random(size)
	if err != nil {
		panic(err)
	}
	instrs := countInstructions(c, img)
	reps := 20
	start := time.Now()
	for i := 0; i < reps; i++ {
		if !c.Verify(img) {
			panic("image rejected")
		}
	}
	per := time.Since(start) / time.Duration(reps)
	rate := float64(instrs) / per.Seconds()
	fmt.Printf("   measured: %d instructions (%d bytes) checked in %v -> %.1fM instructions/second\n",
		instrs, len(img), per, rate/1e6)
	fmt.Printf("   verdict: %s (>= 1M/s expected on modern hardware)\n", pass(rate >= 1e6))
}

func e2CheckerComparison() {
	header("e2", "RockSalt vs Google-style checker speed",
		"no measurable difference on small benchmarks; 0.24s vs 0.90s (3.8x) on a ~200KLoC program (§3.3)")
	c, err := core.NewChecker()
	if err != nil {
		panic(err)
	}
	gen := nacl.NewGenerator(2)

	// Small benchmarks (the CompCert-suite stand-ins).
	small := make([][]byte, 21)
	for i := range small {
		small[i], err = gen.Random(2000)
		if err != nil {
			panic(err)
		}
	}
	rsSmall := benchmark(func() {
		for _, img := range small {
			c.Verify(img)
		}
	})
	ncSmall := benchmark(func() {
		for _, img := range small {
			ncval.Validate(img)
		}
	})
	fmt.Printf("   small suite (21 images): rocksalt %v, ncval %v\n", rsSmall, ncSmall)

	// The large program.
	size := 1200000
	if *quick {
		size = 120000
	}
	big, err := nacl.NewGenerator(3).Random(size)
	if err != nil {
		panic(err)
	}
	instrs := countInstructions(c, big)
	rsBig := benchmark(func() { c.Verify(big) })
	ncBig := benchmark(func() { ncval.Validate(big) })
	ratio := float64(ncBig) / float64(rsBig)
	fmt.Printf("   large image (%d instructions, %.1f MB): rocksalt %v, ncval %v (ncval/rocksalt = %.2fx)\n",
		instrs, float64(len(big))/1e6, rsBig, ncBig, ratio)
	fmt.Printf("   verdict: %s (paper says \"marginally faster\"; the 3.8x case compared against\n", pass(ratio >= 0.9))
	fmt.Println("   Google's full production validator, where our ncval is a lean reimplementation)")
}

func e3ArmorComparison() {
	header("e3", "table-driven vs theorem-prover-style verification",
		"Zhao et al. take ~2.5 hours for a 300-instruction program; RockSalt ~1M instr/s — 5+ orders of magnitude (§1)")
	c, err := core.NewChecker()
	if err != nil {
		panic(err)
	}
	img, err := nacl.NewGenerator(4).Random(300)
	if err != nil {
		panic(err)
	}
	instrs := countInstructions(c, img)
	start := time.Now()
	if !armor.Verify(img) {
		panic("armor rejected compliant image")
	}
	armorTime := time.Since(start)
	rsTime := benchmark(func() { c.Verify(img) })
	ratio := float64(armorTime) / float64(rsTime)
	fmt.Printf("   measured on %d instructions: armor-style %v, rocksalt %v -> %.0fx\n",
		instrs, armorTime, rsTime, ratio)
	fmt.Printf("   per instruction: armor-style %v, rocksalt %v\n",
		armorTime/time.Duration(instrs), rsTime/time.Duration(instrs))
	fmt.Printf("   verdict: %s (orders of magnitude, as in the paper)\n", pass(ratio > 1000))
}

func e4DFASizes() {
	header("e4", "checker DFA sizes",
		"the number of states is small enough (61 for the largest DFA) that no minimization is needed (§3.2)")
	start := time.Now()
	if _, err := core.BuildDFAs(); err != nil {
		panic(err)
	}
	build := time.Since(start)
	stats, _ := core.DFAStats()
	max := 0
	for name, n := range stats {
		fmt.Printf("   %-14s %3d states\n", name, n)
		if n > max {
			max = n
		}
	}
	fmt.Printf("   generated in %v\n", build)
	// Verify the "no minimization needed" observation: Hopcroft-minimize
	// the bit-level automata and compare.
	ctx := grammar.NewCtx()
	for name, g := range map[string]*grammar.Grammar{
		"MaskedJump":    core.MaskedJumpGrammar(),
		"NoControlFlow": core.NoControlFlowGrammar(),
		"DirectJump":    core.DirectJumpGrammar(),
	} {
		d, err := ctx.CompileBitDFA(ctx.Strip(g), 0)
		if err != nil {
			panic(err)
		}
		m := grammar.MinimizeBitDFA(d)
		fmt.Printf("   %-14s bit-level %4d states, minimal %4d (%.2fx)\n",
			name, d.NumStates(), m.NumStates(), float64(d.NumStates())/float64(m.NumStates()))
	}
	fmt.Printf("   verdict: %s (largest %d <= 61; derivatives near-minimal)\n", pass(max <= 61), max)
}

// rtlStats is the DESIGN.md §6 ablation: the RTL staging claim — each
// instruction translates to a small, bounded RTL term, which is why
// reasoning over RTL scales where per-instruction case analysis did not.
func rtlStats() {
	header("rtl", "RTL ops per instruction",
		"compiling instructions to a small RISC-like core simplified our reasoning (§6.2)")
	rng := rand.New(rand.NewSource(12))
	sampler := grammar.NewSampler(rng)
	top := decode.TopGrammar()
	dec := decode.NewDecoder()
	n := 3000
	if *quick {
		n = 300
	}
	total, max, translated := 0, 0, 0
	hist := map[int]int{} // bucketed by tens
	for i := 0; i < n; i++ {
		bs, _, ok := sampler.SampleBytes(top, 4)
		if !ok {
			continue
		}
		inst, k, err := dec.Decode(bs)
		if err != nil {
			continue
		}
		prog, err := semantics.Translate(inst, 0x1000, k)
		if err != nil {
			continue
		}
		translated++
		total += len(prog)
		if len(prog) > max {
			max = len(prog)
		}
		hist[len(prog)/10*10]++
	}
	fmt.Printf("   %d sampled instructions translated; mean %.1f RTL ops, max %d\n",
		translated, float64(total)/float64(translated), max)
	for b := 0; b <= max; b += 10 {
		if hist[b] > 0 {
			fmt.Printf("   %3d-%3d ops: %5d\n", b, b+9, hist[b])
		}
	}
	fmt.Printf("   verdict: %s (terms stay small and bounded)\n", pass(max < 400))
}

func e5ModelValidation() {
	header("e5", "model validation by fuzzing and differential execution",
		"over 10M instruction instances validated against hardware via Pin; grammar fuzzing for rare encodings (§2.5)")
	n := 40000
	if *quick {
		n = 4000
	}
	rng := rand.New(rand.NewSource(5))
	sampler := grammar.NewSampler(rng)
	top := decode.TopGrammar()
	dec := decode.NewDecoder()

	// Decoder round-trip fuzzing.
	start := time.Now()
	bad := 0
	for i := 0; i < n; i++ {
		bs, v, ok := sampler.SampleBytes(top, 4)
		if !ok {
			continue
		}
		got, k, err := dec.Decode(bs)
		if err != nil || k != len(bs) || !reflect.DeepEqual(got, v.(x86.Inst)) {
			bad++
		}
	}
	fmt.Printf("   decoder fuzz: %d sampled encodings, %d mismatches (%v)\n", n, bad, time.Since(start))

	// Differential execution of the model against the reference.
	start = time.Now()
	executed, diverged := diffFuzz(rng, n/4)
	fmt.Printf("   differential execution: %d instances executed, %d divergences (%v)\n",
		executed, diverged, time.Since(start))
	fmt.Printf("   verdict: %s\n", pass(bad == 0 && diverged == 0))
}

func diffFuzz(rng *rand.Rand, n int) (executed, diverged int) {
	sampler := grammar.NewSampler(rng)
	top := decode.TopGrammar()
	dec := decode.NewDecoder()
	for i := 0; i < n; i++ {
		bs, _, ok := sampler.SampleBytes(top, 4)
		if !ok {
			continue
		}
		st := randomMachine(rng, bs)
		ref := st.Clone()
		s1 := sim.New(st)
		s1.Dec = dec
		err1 := s1.Step()
		err2 := sim.RefStep(&sim.Simulator{St: ref, Dec: dec})
		if errors.Is(err2, sim.ErrRefUnsupported) {
			continue
		}
		executed++
		if (err1 != nil) != (err2 != nil) ||
			(err1 == nil && (!st.EqualRegs(ref) || !st.Mem.Equal(ref.Mem))) {
			diverged++
		}
	}
	return executed, diverged
}

func randomMachine(rng *rand.Rand, code []byte) *machine.State {
	st := machine.New()
	const codeBase, dataBase = 0x10000, 0x100000
	for _, s := range []x86.SegReg{x86.ES, x86.SS, x86.DS, x86.FS, x86.GS} {
		st.SegBase[s] = dataBase
		st.SegLimit[s] = 0xffff
	}
	st.SegBase[x86.CS] = codeBase
	st.SegLimit[x86.CS] = uint32(len(code) - 1)
	st.Mem.WriteBytes(codeBase, code)
	for r := range st.Regs {
		st.Regs[r] = uint32(rng.Intn(0x7000))
	}
	st.Regs[x86.ESP] = 0x4000
	for f := range st.Flags {
		st.Flags[f] = rng.Intn(2) == 1
	}
	return st
}

func e6Agreement() {
	header("e6", "checker agreement",
		"RockSalt and Google's checker always agreed on >2000 generated programs plus hand-crafted unsafe ones (§3.3)")
	c, err := core.NewChecker()
	if err != nil {
		panic(err)
	}
	images := 2000
	if *quick {
		images = 200
	}
	gen := nacl.NewGenerator(6)
	rng := rand.New(rand.NewSource(7))
	disagreements, accepted, rejected := 0, 0, 0
	for i := 0; i < images; i++ {
		img, err := gen.Random(20)
		if err != nil {
			panic(err)
		}
		mut := append([]byte{}, img...)
		if i%2 == 1 { // half the corpus: mutated images
			for k := 0; k < 1+rng.Intn(4); k++ {
				mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
			}
		}
		a, b := c.Verify(mut), ncval.Validate(mut)
		if a != b {
			disagreements++
		}
		if a {
			accepted++
		} else {
			rejected++
		}
	}
	unsafeOK := true
	for _, img := range nacl.UnsafeCorpus() {
		if c.Verify(img) || ncval.Validate(img) {
			unsafeOK = false
		}
	}
	fmt.Printf("   %d images (%d accepted, %d rejected): %d disagreements\n",
		images, accepted, rejected, disagreements)
	fmt.Printf("   unsafe corpus rejected by both: %v\n", unsafeOK)
	fmt.Printf("   verdict: %s\n", pass(disagreements == 0 && unsafeOK))
}

// defaultPathFiles are the sources the default NewChecker + Verify path
// executes: the embedded-bundle loader and the product check it runs
// against the component DFAs, the staged engine with its lane walk and
// the Figure-5 loop the lanes rewind to, the fused automaton and the
// flat table derived from it, the report, and the packed bitmaps. All
// of it is trusted code.
var defaultPathFiles = []string{
	"internal/core/verifier.go",
	"internal/core/engine.go",
	"internal/core/engine_lanes.go",
	"internal/core/fused.go",
	"internal/core/tables.go",
	"internal/core/tables_embed.go",
	"internal/core/report.go",
	"internal/policy/product.go",
	"internal/bitset/bitset.go",
}

func e7CheckerSize() {
	header("e7", "trusted checker size",
		"RockSalt's verifier is ~80 lines of Coq / <100 lines of C; Google's is ~600 statements (§3.1)")
	root := findModuleRoot()
	if root == "" {
		fmt.Println("   (source tree not found; run from within the repository)")
		return
	}
	rsLines := countCodeLines(filepath.Join(root, "internal/core/verifier.go"))
	pathLines := 0
	for _, f := range defaultPathFiles {
		pathLines += countCodeLines(filepath.Join(root, f))
	}
	ncLines := countCodeLines(filepath.Join(root, "internal/ncval/ncval.go"))
	fmt.Printf("   rocksalt Figure-5 verifier loop: %5d code lines (verifier.go)\n", rsLines)
	fmt.Printf("   rocksalt default verify path:    %5d code lines in %d files (paper: ~80 lines of Coq, <100 of C)\n",
		pathLines, len(defaultPathFiles))
	fmt.Printf("   ncval hand-written validator:    %5d code lines (decode intertwined with policy)\n", ncLines)
	fmt.Printf("   verdict: %s (Figure-5 loop several times smaller than ncval)\n", pass(rsLines*2 < ncLines))
}

func e8GrammarMetatheory() {
	header("e8", "decoder grammar unambiguity",
		"the x86 grammar is proven unambiguous by reflection; a flipped bit in a MOV encoding was caught this way (§2.1, §4.1)")
	ctx := grammar.NewCtx()
	start := time.Now()
	err := grammar.CheckUnambiguous(ctx, decode.TopGrammar())
	fmt.Printf("   full-grammar ambiguity check: %v (%v)\n", errString(err), time.Since(start))

	start = time.Now()
	d, derr := ctx.CompileBitDFA(ctx.Strip(decode.TopGrammar()), 1<<21)
	if derr != nil {
		panic(derr)
	}
	fmt.Printf("   prefix-freedom via %d-state bit DFA: %v (%v)\n",
		d.NumStates(), d.PrefixFree(), time.Since(start))

	// Seed the paper's MOV bug and require detection.
	buggy := grammar.Alt(decode.InstructionsGrammar(false),
		grammar.Then(grammar.LitByte(0x8a), grammar.AnyByte()))
	seeded := grammar.CheckUnambiguous(grammar.NewCtx(), buggy)
	fmt.Printf("   seeded flipped-MOV-bit overlap detected: %v\n", seeded != nil)
	fmt.Printf("   verdict: %s\n", pass(err == nil && d.PrefixFree() && seeded != nil))
}

// tsoLitmus runs the store-buffering litmus test under the TSO extension
// (the paper's §6.1 future work) and under sequential consistency.
func tsoLitmus() {
	header("tso", "store-buffering litmus test (extension)",
		"§6.1: \"add a store buffer to the machine state for each processor\" to model TSO")
	const locX, locY = 0x10000, 0x20000
	movTo := func(addr, imm uint32) []byte {
		out := []byte{0xc7, 0x05, byte(addr), byte(addr >> 8), byte(addr >> 16), byte(addr >> 24)}
		return append(out, byte(imm), byte(imm>>8), byte(imm>>16), byte(imm>>24))
	}
	movFrom := func(r x86.Reg, addr uint32) []byte {
		return []byte{0x8b, byte(r)<<3 | 0x05, byte(addr), byte(addr >> 8), byte(addr >> 16), byte(addr >> 24)}
	}
	build := func() *tso.System {
		sys := tso.NewSystem(2)
		sys.LoadCode(0, 0x100, append(append(movTo(locX, 1), movFrom(x86.EAX, locY)...), 0xf4))
		sys.LoadCode(1, 0x800, append(append(movTo(locY, 1), movFrom(x86.EAX, locX)...), 0xf4))
		return sys
	}
	trials := 2000
	if *quick {
		trials = 300
	}
	rng := rand.New(rand.NewSource(13))
	count := func(sc bool) (zz, other int) {
		for i := 0; i < trials; i++ {
			sys := build()
			if sc {
				sys.RunSC(rng, 100)
			} else {
				sys.RunSchedule(tso.RandomSchedule(rng, 2, 8, 0.3))
			}
			if sys.CPUs[0].State.Regs[x86.EAX] == 0 && sys.CPUs[1].State.Regs[x86.EAX] == 0 {
				zz++
			} else {
				other++
			}
		}
		return
	}
	tsoZZ, _ := count(false)
	scZZ, _ := count(true)
	fmt.Printf("   r0=r1=0 under TSO: %d/%d schedules; under SC: %d/%d\n", tsoZZ, trials, scZZ, trials)
	fmt.Printf("   verdict: %s (the TSO-only outcome is reachable exactly when store buffers exist)\n",
		pass(tsoZZ > 0 && scZZ == 0))
}

// faultCampaign runs the adversarial fault-injection harness (the
// robustness extension): >= 10,000 deterministic mutants of compliant
// images, each either rejected by the checker or accepted and executed
// in the sandbox without escaping, plus a DFA-table corruption pass
// that must fail closed at the loader.
func faultCampaign() {
	header("fault", "adversarial fault injection (extension)",
		"beyond the paper: every mutant of a safe image is rejected, or accepted and contained — zero sandbox escapes")
	c, err := core.NewChecker()
	if err != nil {
		panic(err)
	}
	gen := nacl.NewGenerator(17)
	nBases, perKind := 5, 500 // 5 bases x 4 kinds x 500 = 10,000 mutants
	if *quick {
		nBases, perKind = 3, 100
	}
	bases := make([][]byte, nBases)
	for i := range bases {
		if bases[i], err = gen.Random(60); err != nil {
			panic(err)
		}
		if !c.Verify(bases[i]) {
			panic("base image rejected before mutation")
		}
	}
	// CrossCheck makes every mutant also a differential test of the
	// fused engine against the reference three-DFA loop.
	h := &faultinject.Harness{Checker: c, CrossCheck: true}
	start := time.Now()
	stats, err := h.Run(context.Background(), bases, perKind, 1)
	if err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("   %d mutants over %d base images in %v (%.0f mutants/s)\n",
		stats.Mutants, len(bases), elapsed, float64(stats.Mutants)/elapsed.Seconds())
	fmt.Printf("   %-12s %8s %8s %10s %8s\n", "mutator", "mutants", "killed", "contained", "escapes")
	for k := 0; k < faultinject.NumImageKinds; k++ {
		ks := stats.PerKind[faultinject.Kind(k)]
		fmt.Printf("   %-12s %8d %8d %10d %8d\n",
			faultinject.Kind(k), ks.Mutants, ks.Rejected, ks.Contained, ks.Escapes)
	}
	fmt.Printf("   %-12s %8d %8d %10d %8d\n", "total",
		stats.Mutants, stats.Rejected, stats.Contained, len(stats.Escapes))
	for _, e := range stats.Escapes {
		fmt.Printf("   ESCAPE: %v\n", e)
	}

	// DFA-table corruption: the loader must fail closed on the bundle
	// NewChecker ships.
	probes := append([][]byte{}, bases[0], bases[1])
	for _, img := range nacl.UnsafeCorpus() {
		probes = append(probes, img)
	}
	nTables := 1000
	if *quick {
		nTables = 200
	}
	rejectedLoads, cleanLoads, terr := faultinject.CheckTables(core.EmbeddedTableBytes(), probes, c, nTables, 3)
	fmt.Printf("   table corruption: %d corrupt bundles -> %d rejected by loader, %d loaded verdict-identical\n",
		nTables, rejectedLoads, cleanLoads)
	if terr != nil {
		fmt.Printf("   FAIL-OPEN: %v\n", terr)
	}
	fmt.Printf("   verdict: %s (zero escapes, engines agree, table loads fail closed)\n",
		pass(len(stats.Escapes) == 0 && terr == nil))
}

func errString(err error) string {
	if err == nil {
		return "unambiguous"
	}
	return err.Error()
}

func benchmark(f func()) time.Duration {
	// Warm up once, then average over enough runs to cross ~200ms.
	f()
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		elapsed := time.Since(start)
		if elapsed > 200*time.Millisecond || reps >= 1<<16 {
			return elapsed / time.Duration(reps)
		}
		reps *= 4
	}
}

// bestOf runs f once to warm it (tables, scratch pool, page cache),
// then rounds more times, and returns the fastest run: on a shared
// host the run least disturbed is the honest estimate of what f costs.
func bestOf(rounds int, f func()) time.Duration {
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

func pass(ok bool) string {
	if ok {
		return "PASS"
	}
	return "CHECK"
}

func findModuleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return ""
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

func countCodeLines(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		n++
	}
	return n
}
