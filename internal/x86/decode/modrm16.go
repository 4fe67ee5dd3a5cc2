package decode

import (
	"rocksalt/internal/grammar"
	"rocksalt/internal/x86"
)

// This file implements the 16-bit addressing forms of ModRM (selected by
// the 0x67 address-size prefix): the register-pair effective addresses of
// the 8086 — BX+SI, BP+DI, ... — encoded in the rm field. The NaCl policy
// rejects the prefix, but the model decodes and executes it; effective
// addresses wrap at 64 KiB (see semantics.effAddr).

// rm16Pair maps an rm code to its base/index pair (nil = absent).
// rm=110 under mod=00 is the bare disp16 form and is handled separately.
var rm16Pair = [8]struct{ base, index *x86.Reg }{
	0: {regPtr(x86.EBX), regPtr(x86.ESI)}, // [BX+SI]
	1: {regPtr(x86.EBX), regPtr(x86.EDI)}, // [BX+DI]
	2: {regPtr(x86.EBP), regPtr(x86.ESI)}, // [BP+SI]
	3: {regPtr(x86.EBP), regPtr(x86.EDI)}, // [BP+DI]
	4: {regPtr(x86.ESI), nil},             // [SI]
	5: {regPtr(x86.EDI), nil},             // [DI]
	6: {regPtr(x86.EBP), nil},             // [BP] (mod 01/10 only)
	7: {regPtr(x86.EBX), nil},             // [BX]
}

// disp16 matches a 16-bit little-endian displacement (zero-extended; the
// 16-bit EA wraps modulo 2^16 anyway).
func disp16() *g {
	return grammar.Map(grammar.Halfword(), func(v val) val { return uint32(v.(uint64)) })
}

// disp8x16 matches a byte displacement sign-extended to 16 bits.
func disp8x16() *g {
	return grammar.Map(grammar.AnyByte(), func(v val) val {
		return uint32(uint16(int16(int8(v.(uint64)))))
	})
}

func mem16(code uint64, disp uint32) val {
	p := rm16Pair[code&7]
	return x86.MemOp{Addr: x86.Addr{Disp: disp, Base: p.base, Index: p.index, Scale: 1}}
}

// rm16Mem00 matches the r/m field for mod=00 in 16-bit addressing.
func rm16Mem00() *g {
	var alts []*g
	for code := uint64(0); code < 8; code++ {
		if code == 6 {
			continue // [disp16]
		}
		c := code
		alts = append(alts, grammar.Map(grammar.BitsValue(3, c),
			func(val) val { return mem16(c, 0) }))
	}
	alts = append(alts, act(chain(grammar.Bits("110"), disp16()), func(vs []val) val {
		return x86.MemOp{Addr: x86.Addr{Disp: vs[0].(uint32)}}
	}))
	return grammar.Alt(alts...)
}

// rm16MemDisp matches the r/m field for mod=01/10 with the given
// displacement grammar.
func rm16MemDisp(disp *g) *g {
	var alts []*g
	for code := uint64(0); code < 8; code++ {
		c := code
		alts = append(alts, act(chain(grammar.BitsValue(3, c), disp), func(vs []val) val {
			return mem16(c, vs[0].(uint32))
		}))
	}
	return grammar.Alt(alts...)
}

// The 16-bit r/m tails, shared like their 32-bit counterparts.
var (
	rm16Tail00     = rm16Mem00()
	rm16TailDisp8  = rm16MemDisp(disp8x16())
	rm16TailDisp16 = rm16MemDisp(disp16())
)

// modrm16WithReg is the 16-bit analogue of modrmWithReg.
func modrm16WithReg(regG *g, memOnly bool) *g {
	regVal := func(vs []val) uint64 {
		if len(vs) == 0 {
			return 0
		}
		if r, ok := vs[0].(uint64); ok {
			return r
		}
		return 0
	}
	mk := func(vs []val, op x86.Operand) val {
		return modrmVal{reg: regVal(vs), op: op}
	}
	alts := []*g{
		act(chain(grammar.Bits("00"), regG, rm16Tail00), func(vs []val) val {
			return mk(vs[:len(vs)-1], vs[len(vs)-1].(x86.MemOp))
		}),
		act(chain(grammar.Bits("01"), regG, rm16TailDisp8), func(vs []val) val {
			return mk(vs[:len(vs)-1], vs[len(vs)-1].(x86.MemOp))
		}),
		act(chain(grammar.Bits("10"), regG, rm16TailDisp16), func(vs []val) val {
			return mk(vs[:len(vs)-1], vs[len(vs)-1].(x86.MemOp))
		}),
	}
	if !memOnly {
		alts = append(alts, act(chain(grammar.Bits("11"), regG, reg3()), func(vs []val) val {
			return mk(vs[:len(vs)-1], x86.RegOp{Reg: vs[len(vs)-1].(x86.Reg)})
		}))
	}
	return grammar.Alt(alts...)
}
