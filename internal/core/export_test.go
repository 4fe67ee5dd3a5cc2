package core

// SetShardHook installs (or, with nil, removes) the stage-1 shard hook.
// Tests use it to inject cancellation and panics into shard workers
// mid-run; see testShardHook.
func SetShardHook(f func(shard int)) { testShardHook = f }

// StrideParamsForTest exposes the stride table shape: the number of
// fused states, byte classes, and pair classes (0 for a checker the
// constructor built no pair tables for).
func (c *Checker) StrideParamsForTest() (states, ncls, npcls int) {
	f := c.fused
	if f.stride != nil {
		npcls = f.stride.npcls
	}
	return len(f.table), f.ncls, npcls
}

// ByteClassForTest returns the byte-class id of b in the fused
// automaton's column partition.
func (c *Checker) ByteClassForTest(b byte) int { return int(c.fused.cls[b]) }

// ClosedStepForTest is one restart-closed transition (the single-stride
// semantics the pair tables must compose).
func (c *Checker) ClosedStepForTest(s int, b byte) int {
	return int(c.fused.closed[s][b])
}

// StrideStepForTest is one two-byte superstate transition as the lane
// engine performs it: pair-class lookup, then the padded walk table.
// ok reports whether the entry is a real state pair (not the eventful
// sentinel); s1 and s2 are the states after one and two bytes.
func (c *Checker) StrideStepForTest(s int, b1, b2 byte) (s1, s2 int, ok bool) {
	f := c.fused
	v := f.stride.walk[s<<strideShift|int(f.stride.pcls[int(b1)|int(b2)<<8])]
	if v >= 0x8000 {
		return 0, 0, false
	}
	return int(v & 0xFF), int(v >> 8), true
}

// RecBoundaryForTest is the first eventful state id: the lane engines'
// inline bands are [0, rec), and a pair-table entry is the sentinel
// exactly when either composed step leaves them.
func (c *Checker) RecBoundaryForTest() int { return c.fused.rec }

// ResolvedEngineForTest reports the engine-census name (Stats.Engine) a
// run with opts would resolve to, without running a verification.
func (c *Checker) ResolvedEngineForTest(opts VerifyOptions) string {
	return runFlightEngine(c.resolveEngine(opts)).String()
}
