package core

import (
	"context"
	"math/bits"

	"rocksalt/internal/bitset"
)

// This file is the Analyze family: a verification run that also hands
// back the arrays the safety theorem is stated over. It is not on the
// NewChecker + Verify path. Stage 1 records only what a verdict reads —
// the boundary map and the jump targets — so the masked-pair jump
// positions are derived here, after the run, from the boundary map.

// Analyze runs the verifier and additionally returns its instruction-
// boundary bitmap and the positions of the indirect jumps inside masked
// pairs. These arrays are the invariant the safety theorem (and its
// executable test) is stated over: during execution of an accepted image,
// the PC is always at a valid offset, or at a pairJmp offset reached by
// fall-through from its mask.
func (c *Checker) Analyze(code []byte) (valid, pairJmp []bool, ok bool) {
	valid, pairJmp, rep := c.AnalyzeWith(code, VerifyOptions{Workers: 1})
	return valid, pairJmp, rep.Safe
}

// AnalyzeWith is VerifyWith plus the instruction-boundary bitmap and
// masked-pair jump positions (see Analyze for their meaning). The
// bitmaps are only meaningful when the report is Safe. opts.Cache is
// ignored: a cached Report carries no bitmaps, so every call parses.
func (c *Checker) AnalyzeWith(code []byte, opts VerifyOptions) (valid, pairJmp []bool, rep *Report) {
	return c.AnalyzeContext(context.Background(), code, opts)
}

// AnalyzeContext is AnalyzeWith under a context, with VerifyContext's
// cancellation semantics. The bitmaps are only meaningful when the
// report is Safe (in particular, never for an interrupted run).
func (c *Checker) AnalyzeContext(ctx context.Context, code []byte, opts VerifyOptions) (valid, pairJmp []bool, rep *Report) {
	sc := getScratch(len(code), shardCount(len(code)))
	defer putScratch(sc)
	var st Stats
	rep = c.report(c.run(ctx, code, opts, sc, &st), len(code))
	rep.Stats = st
	return sc.valid.Bools(), c.pairJumps(code, &sc.valid), rep
}

// pairJumps derives the masked-pair jump positions from the boundary
// map: at every instruction boundary b where the masked-pair DFA
// matches, the parse took the pair — it has top priority in every
// engine, which is the reference loop's own decision — and the pair's
// jump starts at b+maskLen.
func (c *Checker) pairJumps(code []byte, valid *bitset.Set) []bool {
	out := make([]bool, len(code))
	for w, word := range valid.Words() {
		for ; word != 0; word &= word - 1 {
			b := w*64 + bits.TrailingZeros64(word)
			if pos := b; match(c.masked, code, &pos) {
				out[b+c.params.maskLen] = true
			}
		}
	}
	return out
}
