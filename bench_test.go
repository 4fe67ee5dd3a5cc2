package rocksalt

// The benchmark suite: one benchmark per evaluation claim (the E-index in
// DESIGN.md) plus the ablations called out there. Run with
//
//	go test -bench=. -benchmem .
import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"rocksalt/internal/armor"
	"rocksalt/internal/core"
	"rocksalt/internal/grammar"
	"rocksalt/internal/mips"
	"rocksalt/internal/nacl"
	"rocksalt/internal/ncval"
	"rocksalt/internal/rtl"
	"rocksalt/internal/sim"
	"rocksalt/internal/x86"
	"rocksalt/internal/x86/decode"
	"rocksalt/internal/x86/machine"
	"rocksalt/internal/x86/semantics"
)

// Shared fixtures, built lazily so `go test .` without -bench stays fast.
var fixtures struct {
	checker *core.Checker
	big     []byte // ~100k instructions
	bigN    int
	small   []byte // ~300 instructions
	smallN  int
	huge    []byte // ~1M instructions (the E2-sized image)
	hugeN   int
}

func setup(b *testing.B) {
	b.Helper()
	if fixtures.checker != nil {
		return
	}
	c, err := core.NewChecker()
	if err != nil {
		b.Fatal(err)
	}
	fixtures.checker = c
	fixtures.big, err = nacl.NewGenerator(101).Random(100000)
	if err != nil {
		b.Fatal(err)
	}
	fixtures.bigN = countUnits(c, fixtures.big)
	fixtures.small, err = nacl.NewGenerator(102).Random(300)
	if err != nil {
		b.Fatal(err)
	}
	fixtures.smallN = countUnits(c, fixtures.small)
}

func countUnits(c *core.Checker, img []byte) int {
	valid, _, _ := c.Analyze(img)
	n := 0
	for _, v := range valid {
		if v {
			n++
		}
	}
	return n
}

// BenchmarkRockSaltThroughput is E1: instructions verified per second.
// The paper reports ~1M/s; ns/op divided by the reported instruction
// count gives the per-instruction cost.
func BenchmarkRockSaltThroughput(b *testing.B) {
	setup(b)
	b.SetBytes(int64(len(fixtures.big)))
	b.ReportMetric(float64(fixtures.bigN), "instructions")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !fixtures.checker.Verify(fixtures.big) {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkEngineAblation isolates the tentpole speedup: the same
// sequential verification with the fused product automaton (lane engine
// plus scalar fused fallback) versus the reference three-DFA Figure-5
// loop. Both engines produce byte-identical reports (FuzzFusedEquiv);
// the ratio is the fused hot path's payoff alone, free of the
// cross-process noise that plagues absolute MB/s on shared hardware.
func BenchmarkEngineAblation(b *testing.B) {
	setup(b)
	for _, e := range []struct {
		name   string
		engine core.EngineKind
	}{
		{"fused", core.EngineFused},
		{"reference", core.EngineReference},
	} {
		b.Run(e.name, func(b *testing.B) {
			opts := core.VerifyOptions{Workers: 1, Engine: e.engine}
			b.SetBytes(int64(len(fixtures.big)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := fixtures.checker.VerifyWith(fixtures.big, opts); !rep.Safe {
					b.Fatal("rejected")
				}
			}
		})
	}
}

// BenchmarkNewChecker measures what a process pays before its first
// verdict: loading the embedded bundle through NewCheckerFromTables
// (read, validate, check the fused table against the component DFAs,
// derive the fast-path tables) and one VerifyWith of a 32-byte NOP
// bundle. NewChecker itself loads the bundle once per process and then
// hands out copies, so it would measure only the copy. Compiling the
// grammars from scratch (NewCheckerFromGrammars) takes ~170ms.
func BenchmarkNewChecker(b *testing.B) {
	tables := core.EmbeddedTableBytes()
	nops := bytes.Repeat([]byte{0x90}, core.BundleSize)
	for i := 0; i < b.N; i++ {
		c, err := core.NewCheckerFromTables(bytes.NewReader(tables))
		if err != nil {
			b.Fatal(err)
		}
		if rep := c.VerifyWith(nops, core.VerifyOptions{}); !rep.Safe {
			b.Fatal("NOP bundle rejected")
		}
	}
}

// setupHuge lazily builds the E2-sized (~1M instruction) image used by
// the parallel-scaling benchmark; it is expensive, so only benchmarks
// that need it pay for it.
func setupHuge(b *testing.B) {
	b.Helper()
	setup(b)
	if fixtures.huge != nil {
		return
	}
	img, err := nacl.NewGenerator(103).Random(1000000)
	if err != nil {
		b.Fatal(err)
	}
	fixtures.huge = img
	fixtures.hugeN = countUnits(fixtures.checker, img)
}

// BenchmarkRockSaltThroughputParallel is the scaling companion to E1:
// the staged engine at 1/2/4/GOMAXPROCS stage-1 workers on the E2-sized
// image. MB/s comes from b.SetBytes; the speedup over workers-1 is the
// sharding payoff (bounded by physical core count).
func BenchmarkRockSaltThroughputParallel(b *testing.B) {
	setupHuge(b)
	workerSet := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workerSet = append(workerSet, n)
	}
	for _, w := range workerSet {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			opts := core.VerifyOptions{Workers: w}
			b.SetBytes(int64(len(fixtures.huge)))
			b.ReportMetric(float64(fixtures.hugeN), "instructions")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := fixtures.checker.VerifyWith(fixtures.huge, opts); !rep.Safe {
					b.Fatal("rejected")
				}
			}
		})
	}
}

// BenchmarkCheckerComparison is E2: RockSalt vs the Google-style
// hand-written validator on the same large image.
func BenchmarkCheckerComparison(b *testing.B) {
	setup(b)
	b.Run("rocksalt", func(b *testing.B) {
		b.SetBytes(int64(len(fixtures.big)))
		for i := 0; i < b.N; i++ {
			if !fixtures.checker.Verify(fixtures.big) {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("ncval", func(b *testing.B) {
		b.SetBytes(int64(len(fixtures.big)))
		for i := 0; i < b.N; i++ {
			if !ncval.Validate(fixtures.big) {
				b.Fatal("rejected")
			}
		}
	})
}

// BenchmarkArmorStyleVerifier is E3: the theorem-prover-style verifier on
// a 300-instruction program (the paper's Zhao-et-al comparison point).
func BenchmarkArmorStyleVerifier(b *testing.B) {
	setup(b)
	b.Run("armor", func(b *testing.B) {
		b.ReportMetric(float64(fixtures.smallN), "instructions")
		for i := 0; i < b.N; i++ {
			if !armor.Verify(fixtures.small) {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("rocksalt", func(b *testing.B) {
		b.ReportMetric(float64(fixtures.smallN), "instructions")
		for i := 0; i < b.N; i++ {
			if !fixtures.checker.Verify(fixtures.small) {
				b.Fatal("rejected")
			}
		}
	})
}

// BenchmarkDFAGeneration is E4 and the bit-vs-byte ablation: compiling
// the three policy grammars to byte DFAs, and the MaskedJump grammar at
// both granularities.
func BenchmarkDFAGeneration(b *testing.B) {
	b.Run("policy-byte-dfas", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := grammar.NewCtx()
			for _, g := range []*grammar.Grammar{
				core.MaskedJumpGrammar(), core.NoControlFlowGrammar(), core.DirectJumpGrammar(),
			} {
				if _, err := ctx.CompileDFA(ctx.Strip(g), 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("maskedjump-bit-dfa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := grammar.NewCtx()
			if _, err := ctx.CompileBitDFA(ctx.Strip(core.MaskedJumpGrammar()), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMatchDFAvsDerivatives is the core speed ablation: matching one
// masked-jump pair with the compiled DFA versus raw grammar derivatives.
func BenchmarkMatchDFAvsDerivatives(b *testing.B) {
	pair := []byte{0x83, 0xe1, 0xe0, 0xff, 0xe1}
	setup(b)
	img := append(append([]byte{}, pair...), make([]byte, 27)...)
	for i := 5; i < 32; i++ {
		img[i] = 0x90
	}
	b.Run("dfa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !fixtures.checker.Verify(img) {
				b.Fatal("rejected")
			}
		}
	})
	g := core.MaskedJumpGrammar()
	b.Run("derivatives", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := grammar.ParseBytes(g, pair, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulatorThroughput is the E5 support measurement: modeled
// instructions executed per second by the decode→RTL→interpret pipeline,
// with and without the translation cache (an engineering ablation; the
// uncached path is the paper's extracted-simulator cost profile).
func BenchmarkSimulatorThroughput(b *testing.B) {
	// Tight arithmetic loop: 5 instructions per iteration.
	code := []byte{
		0x31, 0xc0, // xor eax, eax
		0xb9, 0xff, 0xff, 0xff, 0x7f, // mov ecx, 0x7fffffff
		0x01, 0xc8, // L: add eax, ecx
		0x31, 0xc8, // xor eax, ecx
		0x41,       // inc ecx
		0xe2, 0xf9, // loop L
	}
	mkSim := func(cache bool) *sim.Simulator {
		st := machine.New()
		st.SegBase[x86.CS] = 0
		st.SegLimit[x86.CS] = uint32(len(code) - 1)
		st.Mem.WriteBytes(0, code)
		s := sim.New(st)
		s.CacheTranslations = cache
		if _, err := s.Run(3); err != nil {
			b.Fatal(err)
		}
		return s
	}
	for _, cache := range []bool{true, false} {
		name := "cached"
		if !cache {
			name = "uncached"
		}
		b.Run(name, func(b *testing.B) {
			s := mkSim(cache)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecode measures the decoder alone (cached opcodes, varying
// immediates).
func BenchmarkDecode(b *testing.B) {
	d := decode.NewDecoder()
	insts := [][]byte{
		{0x90},
		{0x01, 0xd8},
		{0x8b, 0x44, 0x8a, 0x04},
		{0xb8, 0x78, 0x56, 0x34, 0x12},
		{0x0f, 0xaf, 0xc3},
		{0x83, 0xe0, 0xe0},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := d.Decode(insts[i%len(insts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslate measures x86→RTL compilation.
func BenchmarkTranslate(b *testing.B) {
	inst := x86.Inst{Op: x86.ADD, W: true,
		Args: []x86.Operand{x86.RegOp{Reg: x86.EAX}, x86.RegOp{Reg: x86.EBX}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := semantics.Translate(inst, 0, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRTLExec measures the interpreter on a pre-translated term.
func BenchmarkRTLExec(b *testing.B) {
	inst := x86.Inst{Op: x86.ADD, W: true,
		Args: []x86.Operand{x86.RegOp{Reg: x86.EAX}, x86.RegOp{Reg: x86.EBX}}}
	prog, err := semantics.Translate(inst, 0, 2)
	if err != nil {
		b.Fatal(err)
	}
	st := machine.New()
	rst := rtl.NewState(st, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rst.Reset()
		if err := rtl.Exec(prog, rst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrammarAmbiguityCheck is E8's reflection procedure over the
// full instruction grammar.
func BenchmarkGrammarAmbiguityCheck(b *testing.B) {
	top := decode.TopGrammar()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := grammar.NewCtx()
		if err := grammar.CheckUnambiguous(ctx, top); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerator measures the NaCl toolchain substitute.
func BenchmarkGenerator(b *testing.B) {
	gen := nacl.NewGenerator(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Random(100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampler measures generative fuzzing throughput (E5 support).
func BenchmarkSampler(b *testing.B) {
	s := grammar.NewSampler(rand.New(rand.NewSource(1)))
	top := decode.TopGrammar()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := s.SampleBytes(top, 4); !ok {
			b.Fatal("sample failed")
		}
	}
}

// BenchmarkMipsSimulator exercises the reused DSLs on the second
// architecture.
func BenchmarkMipsSimulator(b *testing.B) {
	s := mips.NewState()
	s.StoreWord(0, mips.Assemble(mips.Inst{Op: mips.ADDIU, RS: 8, RT: 8, Imm: 1}))
	s.StoreWord(4, mips.Assemble(mips.Inst{Op: mips.BEQ, RS: 0, RT: 0, Imm: 0xfffd})) // loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
