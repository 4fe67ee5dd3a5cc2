package policy

import (
	"math/rand"
	"sync"

	"rocksalt/internal/grammar"
	"rocksalt/internal/x86"
	"rocksalt/internal/x86/decode"
)

// This file builds the three policy grammars from a normalized Spec.
// For the default NaCl spec every constructor call below reproduces the
// exact grammar trees the pre-refactor builder produced, in the same
// order — the byte-identity of the runtime-compiled tables with the
// embedded bundle (asserted by the regeneration guard) depends on it.

// maskP is the paper's nacl_MASK_p generalized over the spec: the
// pattern for "AND r, imm" with the spec's mask immediate — opcode
// 0x83 /4 imm8 for width 8, 0x81 /4 imm32 (little-endian) for width 32.
func maskP(s Spec, r x86.Reg) *grammar.Grammar {
	if s.MaskWidth == 32 {
		imm := s.MaskImm()
		immG := grammar.Then(grammar.BitsValue(8, uint64(imm&0xff)),
			grammar.Then(grammar.BitsValue(8, uint64(imm>>8&0xff)),
				grammar.Then(grammar.BitsValue(8, uint64(imm>>16&0xff)),
					grammar.BitsValue(8, uint64(imm>>24&0xff)))))
		return grammar.Then(grammar.Bits("1000 0001"),
			grammar.Then(grammar.Bits("11"),
				grammar.Then(grammar.Bits("100"),
					grammar.Then(grammar.BitsValue(3, uint64(r)), immG))))
	}
	return grammar.Then(grammar.Bits("1000 0011"),
		grammar.Then(grammar.Bits("11"),
			grammar.Then(grammar.Bits("100"),
				grammar.Then(grammar.BitsValue(3, uint64(r)),
					grammar.BitsValue(8, uint64(s.MaskImm()))))))
}

// jmpP is nacl_JMP_p: "JMP r" (0xFF /4, mod=11).
func jmpP(r x86.Reg) *grammar.Grammar {
	return grammar.Then(grammar.Bits("1111 1111"),
		grammar.Then(grammar.Bits("11"),
			grammar.Then(grammar.Bits("100"), grammar.BitsValue(3, uint64(r)))))
}

// callP is nacl_CALL_p: "CALL r" (0xFF /2, mod=11).
func callP(r x86.Reg) *grammar.Grammar {
	return grammar.Then(grammar.Bits("1111 1111"),
		grammar.Then(grammar.Bits("11"),
			grammar.Then(grammar.Bits("010"), grammar.BitsValue(3, uint64(r)))))
}

// jmpPair is nacljmp_p: a mask of r immediately followed by an indirect
// jump or call through the same r.
func jmpPair(s Spec, r x86.Reg) *grammar.Grammar {
	return grammar.Cat(maskP(s, r), grammar.Alt(jmpP(r), callP(r)))
}

// MaskedJumpGrammar is nacljmp_mask under the spec: the union of masked
// pairs over the spec's mask registers.
func MaskedJumpGrammar(s Spec) *grammar.Grammar {
	var alts []*grammar.Grammar
	for _, r := range s.MaskRegisters() {
		alts = append(alts, jmpPair(s, r))
	}
	return grammar.Alt(alts...)
}

// DirectJumpGrammar matches exactly the direct, PC-relative control
// transfers the policy allows: JMP rel8/rel32, Jcc rel8/rel32, and CALL
// rel32, all unprefixed. No spec knob varies it; target legality
// (alignment, guard region, entry whitelist) is the engine's job.
func DirectJumpGrammar() *grammar.Grammar {
	rel8 := grammar.AnyByte()
	rel32 := grammar.Then(grammar.AnyByte(),
		grammar.Then(grammar.AnyByte(), grammar.Then(grammar.AnyByte(), grammar.AnyByte())))
	return grammar.Alt(
		grammar.Then(grammar.LitByte(0xeb), rel8),
		grammar.Then(grammar.LitByte(0xe9), rel32),
		grammar.Then(grammar.LitByte(0xe8), rel32),
		grammar.Then(grammar.Bits("0111"), grammar.Then(grammar.Field(4), rel8)),
		grammar.Then(grammar.LitByte(0x0f),
			grammar.Then(grammar.Bits("1000"), grammar.Then(grammar.Field(4), rel32))),
	)
}

// SafeInst is the policy predicate on abstract syntax: an instruction
// the sandbox can always allow. It is the semantic counterpart of the
// NoControlFlow grammar, used both to build that grammar (forms are
// classified by sampling) and as the specification in the inversion-
// principle tests. Banned instruction classes are layered on top by
// NoControlFlowGrammar, not here.
func SafeInst(i x86.Inst) bool {
	if i.IsControlFlow() || i.Far {
		return false
	}
	switch i.Op {
	case x86.IN, x86.OUT, x86.INS, x86.OUTS, x86.HLT, x86.BOUND,
		x86.LDS, x86.LES, x86.LSS, x86.LFS, x86.LGS, x86.UD2, x86.BAD:
		return false
	}
	for _, a := range i.Args {
		if _, isSeg := a.(x86.SegOp); isSeg {
			return false
		}
	}
	if i.Prefix.Seg != nil || i.Prefix.AddrSize || i.Prefix.Lock {
		return false
	}
	// REP/REPNE are meaningful (and allowed) only on string operations.
	if (i.Prefix.Rep || i.Prefix.RepN) && !isStringOp(i.Op) {
		return false
	}
	return true
}

// isStringOp reports the REP-able string operations.
func isStringOp(op x86.Op) bool {
	switch op {
	case x86.MOVS, x86.STOS, x86.LODS, x86.SCAS, x86.CMPS:
		return true
	}
	return false
}

// classified memoizes classifyForms per operand-size mode: the sampling
// pass over every instruction form is the expensive part of grammar
// construction and is identical on every call (the sampler is reseeded
// deterministically), so compiling several specs pays it once. The
// memo keeps the forms alive for the life of the process; they share
// the decoder's ModRM tails, so that is about 1 MiB.
var classified [2]struct {
	once          sync.Once
	safe, strings []*grammar.Grammar
}

// classifyForms splits the decoder's instruction forms into the safe
// subset by sampling: each form is homogeneous (one constructor), so a
// handful of samples decides its class. The deterministic seed keeps the
// generated DFAs reproducible. The returned slices are shared and must
// not be mutated.
func classifyForms(opsize16 bool) (safe, strings []*grammar.Grammar) {
	m := &classified[0]
	if opsize16 {
		m = &classified[1]
	}
	m.once.Do(func() {
		s := grammar.NewSampler(rand.New(rand.NewSource(1)))
		for _, form := range decode.InstructionForms(opsize16) {
			var inst x86.Inst
			ok := false
			allSafe, allString := true, true
			for k := 0; k < 8; k++ {
				_, v, sampled := s.Sample(form)
				if !sampled {
					break
				}
				ok = true
				inst = v.(x86.Inst)
				if !SafeInst(inst) {
					allSafe = false
				}
				if !isStringOp(inst.Op) {
					allString = false
				}
			}
			if !ok {
				panic("policy: unsampleable instruction form")
			}
			if allSafe {
				m.safe = append(m.safe, form)
				if allString {
					m.strings = append(m.strings, form)
				}
			}
		}
	})
	return m.safe, m.strings
}

// dropForms returns safe without the members of ban (pointer identity),
// leaving the shared input slices untouched.
func dropForms(safe, ban []*grammar.Grammar) []*grammar.Grammar {
	banned := make(map[*grammar.Grammar]bool, len(ban))
	for _, g := range ban {
		banned[g] = true
	}
	out := make([]*grammar.Grammar, 0, len(safe))
	for _, g := range safe {
		if !banned[g] {
			out = append(out, g)
		}
	}
	return out
}

// NoControlFlowGrammar matches one legal non-control-flow instruction
// under the spec: a safe instruction form, optionally under an
// operand-size override, or a REP/REPN-prefixed string operation —
// minus the spec's banned classes. Lock prefixes, segment overrides and
// 16-bit addressing are rejected outright.
func NoControlFlowGrammar(s Spec) *grammar.Grammar {
	banStr := s.banned("string")
	banRep := banStr || s.banned("rep-prefix")
	banO16 := s.banned("opsize16")
	safe32, strings32 := classifyForms(false)
	if banStr {
		safe32 = dropForms(safe32, strings32)
	}
	var alts []*grammar.Grammar
	alts = append(alts, safe32...)
	if !banO16 {
		safe16, strings16 := classifyForms(true)
		if banStr {
			safe16 = dropForms(safe16, strings16)
		}
		alts = append(alts, grammar.Then(grammar.LitByte(0x66), grammar.Alt(safe16...)))
	}
	if !banRep {
		alts = append(alts, grammar.Then(grammar.LitByte(0xf3), grammar.Alt(strings32...)))
		alts = append(alts, grammar.Then(grammar.LitByte(0xf2), grammar.Alt(strings32...)))
	}
	return grammar.Alt(alts...)
}
