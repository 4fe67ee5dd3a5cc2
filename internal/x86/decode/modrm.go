// Package decode implements the x86 instruction decoder as a grammar in
// the Decoder DSL (§2.1 of the paper): bit-level patterns transcribed from
// the Intel manual's opcode tables, with semantic actions building the
// abstract syntax of internal/x86. The same grammars serve four masters:
// the derivative parser (the model's decode stage), the generative fuzzer,
// the unambiguity reflection check, and — restricted to policy subsets —
// the checker DFAs in internal/core.
package decode

import (
	"rocksalt/internal/grammar"
	"rocksalt/internal/x86"
)

type g = grammar.Grammar

type val = grammar.Value

// chain concatenates grammars and collects their semantic values into a
// flat []val, dropping Unit values (literal bit patterns). It removes the
// nested-pair plumbing that Coq's notation hides.
func chain(gs ...*g) *g {
	acc := grammar.Map(gs[0], func(v val) val { return appendVal(nil, v) })
	for _, gi := range gs[1:] {
		acc = grammar.Map(grammar.Cat(acc, gi), func(v val) val {
			p := v.(grammar.Pair)
			return appendVal(p.Fst.([]val), p.Snd)
		})
	}
	return acc
}

func appendVal(vs []val, v val) []val {
	if _, isUnit := v.(grammar.Unit); isUnit {
		return vs
	}
	out := make([]val, len(vs), len(vs)+1)
	copy(out, vs)
	return append(out, v)
}

// act attaches a semantic action to a chain.
func act(gr *g, f func([]val) val) *g {
	return grammar.Map(gr, func(v val) val { return f(v.([]val)) })
}

// bit matches one arbitrary bit (a d or w flag).
func bit() *g { return grammar.Any() }

// reg3 matches a 3-bit register field and yields an x86.Reg.
func reg3() *g {
	return grammar.Map(grammar.Field(3), func(v val) val { return x86.Reg(v.(uint64)) })
}

// reg3Except matches a 3-bit register field excluding the given encodings.
// It is used where the Intel tables give certain codes a different meaning
// (rm=100 introduces a SIB byte, rm=101 a bare displacement, ...); the
// exclusions keep the grammar unambiguous.
func reg3Except(excl ...x86.Reg) *g {
	var alts []*g
	for code := x86.Reg(0); code < 8; code++ {
		skip := false
		for _, e := range excl {
			if code == e {
				skip = true
			}
		}
		if skip {
			continue
		}
		c := code
		alts = append(alts, grammar.Map(grammar.BitsValue(3, uint64(c)),
			func(val) val { return c }))
	}
	return grammar.Alt(alts...)
}

// disp8 matches a byte displacement sign-extended to 32 bits.
func disp8() *g {
	return grammar.Map(grammar.AnyByte(), func(v val) val {
		return uint32(int32(int8(v.(uint64))))
	})
}

// disp32 matches a little-endian 32-bit displacement.
func disp32() *g {
	return grammar.Map(grammar.Word(), func(v val) val { return uint32(v.(uint64)) })
}

// imm8 matches an 8-bit immediate, zero-extended into a uint32.
func imm8() *g {
	return grammar.Map(grammar.AnyByte(), func(v val) val { return uint32(v.(uint64)) })
}

// imm8s matches an 8-bit immediate sign-extended to 32 bits (the 0x83 and
// 0x6A forms).
func imm8s() *g { return disp8() }

// imm16 matches a 16-bit little-endian immediate.
func imm16() *g {
	return grammar.Map(grammar.Halfword(), func(v val) val { return uint32(v.(uint64)) })
}

// imm32 matches a 32-bit little-endian immediate.
func imm32() *g { return disp32() }

// immZ matches the "z" immediate: 16 bits under an operand-size override,
// 32 bits otherwise.
func immZ(opsize16 bool) *g {
	if opsize16 {
		return imm16()
	}
	return imm32()
}

// modrmVal is the semantic value of a ModRM sequence: the reg field plus
// the decoded r/m operand.
type modrmVal struct {
	reg uint64
	op  x86.Operand
}

func memOp(disp uint32, base, index *x86.Reg, scale x86.Scale) val {
	if index == nil {
		scale = 0 // canonical form: scale is meaningful only with an index
	}
	return x86.MemOp{Addr: x86.Addr{Disp: disp, Base: base, Index: index, Scale: scale}}
}

func regPtr(r x86.Reg) *x86.Reg { rr := r; return &rr }

// sibTail matches the SIB byte's scale/index prefix (scale(2) index(3)),
// yielding a partial address: index register (or nil) and scale.
type sibIdx struct {
	index *x86.Reg
	scale x86.Scale
}

func sibIndexPart() *g {
	withIndex := act(chain(grammar.Field(2), reg3Except(x86.ESP)), func(vs []val) val {
		return sibIdx{index: regPtr(vs[1].(x86.Reg)), scale: x86.Scale(1 << vs[0].(uint64))}
	})
	// index=100 means "no index"; the scale bits are ignored by hardware,
	// so all four values decode (to the same address).
	noIndex := act(chain(grammar.Field(2), grammar.Bits("100")), func(vs []val) val {
		return sibIdx{index: nil, scale: 0}
	})
	return grammar.Alt(withIndex, noIndex)
}

// sibAnyBase matches a full SIB byte where every base register is legal
// (the mod=01/10 cases); displacement is handled by the caller.
func sibAnyBase() *g {
	return act(chain(sibIndexPart(), reg3()), func(vs []val) val {
		si := vs[0].(sibIdx)
		return func(disp uint32) val {
			return memOp(disp, regPtr(vs[1].(x86.Reg)), si.index, si.scale)
		}
	})
}

// sibMod00 matches a SIB byte in the mod=00 case: base=101 means "no base,
// 32-bit displacement follows"; everything else is a plain base.
func sibMod00() *g {
	plain := act(chain(sibIndexPart(), reg3Except(x86.EBP)), func(vs []val) val {
		si := vs[0].(sibIdx)
		return memOp(0, regPtr(vs[1].(x86.Reg)), si.index, si.scale)
	})
	dispOnly := act(chain(sibIndexPart(), grammar.Bits("101"), disp32()), func(vs []val) val {
		si := vs[0].(sibIdx)
		return memOp(vs[1].(uint32), nil, si.index, si.scale)
	})
	return grammar.Alt(plain, dispOnly)
}

// rmMem00 matches the r/m part for mod=00 (no displacement except the
// rm=101 absolute form).
func rmMem00() *g {
	plain := grammar.Map(reg3Except(x86.ESP, x86.EBP), func(v val) val {
		return memOp(0, regPtr(v.(x86.Reg)), nil, 0)
	})
	sib := grammar.Then(grammar.Bits("100"), sibMod00())
	abs := act(chain(grammar.Bits("101"), disp32()), func(vs []val) val {
		return memOp(vs[0].(uint32), nil, nil, 0)
	})
	return grammar.Alt(plain, sib, abs)
}

// rmMemDisp matches the r/m part for mod=01/10, parameterized by the
// displacement grammar.
func rmMemDisp(disp *g) *g {
	plain := act(chain(reg3Except(x86.ESP), disp), func(vs []val) val {
		return memOp(vs[1].(uint32), regPtr(vs[0].(x86.Reg)), nil, 0)
	})
	sib := act(chain(grammar.Bits("100"), sibAnyBase(), disp), func(vs []val) val {
		return vs[0].(func(uint32) val)(vs[1].(uint32))
	})
	return grammar.Alt(plain, sib)
}

// The r/m tails, built once per process and shared by every ModRM form.
// Grammars are immutable, so sharing is safe, and it keeps the policy
// grammars small: NaCl-16's NoControlFlow grammar has 16,353 distinct
// nodes this way and 115,654 with a copy of each tail per form. Every
// walk keyed by grammar node (Strip's memo, the sampler, the ambiguity
// check) visits a shared tail once.
var (
	rmTail00     = rmMem00()
	rmTailDisp8  = rmMemDisp(disp8())
	rmTailDisp32 = rmMemDisp(disp32())
)

// modrmWithReg builds a full ModRM byte (plus SIB/displacement tail) whose
// reg field is matched by regG (either a live 3-bit field or a literal
// opcode extension). memOnly restricts to memory forms (LEA, BOUND, the
// far pointer loads); regOnly to the mod=11 forms (BSWAP-style).
func modrmWithReg(regG *g, memOnly, regOnly bool) *g {
	regVal := func(vs []val) uint64 {
		if len(vs) == 0 {
			return 0 // literal extension, value dropped as Unit
		}
		if r, ok := vs[0].(uint64); ok {
			return r
		}
		return 0
	}
	mk := func(vs []val, op x86.Operand) val {
		return modrmVal{reg: regVal(vs), op: op}
	}
	var alts []*g
	if !regOnly {
		mod00 := act(chain(grammar.Bits("00"), regG, rmTail00), func(vs []val) val {
			return mk(vs[:len(vs)-1], vs[len(vs)-1].(x86.MemOp))
		})
		mod01 := act(chain(grammar.Bits("01"), regG, rmTailDisp8), func(vs []val) val {
			return mk(vs[:len(vs)-1], vs[len(vs)-1].(x86.MemOp))
		})
		mod10 := act(chain(grammar.Bits("10"), regG, rmTailDisp32), func(vs []val) val {
			return mk(vs[:len(vs)-1], vs[len(vs)-1].(x86.MemOp))
		})
		alts = append(alts, mod00, mod01, mod10)
	}
	if !memOnly {
		mod11 := act(chain(grammar.Bits("11"), regG, reg3()), func(vs []val) val {
			return mk(vs[:len(vs)-1], x86.RegOp{Reg: vs[len(vs)-1].(x86.Reg)})
		})
		alts = append(alts, mod11)
	}
	return grammar.Alt(alts...)
}

// cfg selects the decode variant: operand-size (0x66) changes "z"
// immediate widths; address-size (0x67) swaps in the 16-bit ModRM forms.
type cfg struct {
	opsize16 bool
	addr16   bool
}

// modrmCfg picks the 16- or 32-bit ModRM machinery.
func (c cfg) modrmWithReg(regG *g, memOnly bool) *g {
	if c.addr16 {
		return modrm16WithReg(regG, memOnly)
	}
	return modrmWithReg(regG, memOnly, false)
}

// modrm matches a general ModRM sequence, yielding modrmVal.
func (c cfg) modrm() *g { return c.modrmWithReg(grammar.Field(3), false) }

// modrmMemOnly matches a ModRM sequence whose r/m must be memory.
func (c cfg) modrmMemOnly() *g { return c.modrmWithReg(grammar.Field(3), true) }

// extOpModrm matches a ModRM sequence with a literal opcode extension in
// the reg field (the /digit notation; the paper's ext_op_modrm2). Both
// register and memory forms are allowed.
func (c cfg) extOpModrm(ext string) *g {
	gm := c.modrmWithReg(grammar.Bits(ext), false)
	return grammar.Map(gm, func(v val) val { return v.(modrmVal).op })
}

// extOpModrmMem is extOpModrm restricted to memory operands.
func (c cfg) extOpModrmMem(ext string) *g {
	gm := c.modrmWithReg(grammar.Bits(ext), true)
	return grammar.Map(gm, func(v val) val { return v.(modrmVal).op })
}

// immZ matches the operand-size-dependent immediate.
func (c cfg) immZ() *g { return immZ(c.opsize16) }

// moffs matches the direct-offset field of the A0-A3 MOV forms: 16 bits
// under an address-size override, 32 otherwise.
func (c cfg) moffs() *g {
	if c.addr16 {
		return disp16()
	}
	return disp32()
}
