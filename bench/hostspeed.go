package main

import (
	"sort"
	"time"
)

// The host probe is a fixed piece of work shaped like the checker's
// stage-1 inner loop, sharing no code or data with it: four independent
// chains of byte-indexed lookups in a 16 KiB table, reading 256 KiB of
// input. The measurement host is a 2-vCPU VM on a shared Xeon, and the
// speed of table-driven code on it moves by up to 2x with the other
// tenants' load, over seconds and over minutes. The probe slows with it,
// so a call's latency divided by the time of a probe run right after the
// call cancels most of that drift, and nothing a change to the checker
// does to its own code can move the probe. See README.md, "Why the
// timings are scaled".
const (
	probeTableLen = 8 << 10   // uint16 entries: 16 KiB
	probeInputLen = 256 << 10 // input bytes, split among the four chains
	// probeNominalMs is the probe's median time on the measurement host
	// in a quiet period. Scaled timings read as milliseconds at that
	// speed.
	probeNominalMs = 0.17
)

var (
	probeTable = func() []uint16 {
		t := make([]uint16, probeTableLen)
		x := uint32(3)
		for i := range t {
			x = x*1664525 + 1013904223
			t[i] = uint16(x>>16) & (probeTableLen - 1)
		}
		return t
	}()
	probeInput = func() []byte {
		b := make([]byte, probeInputLen)
		x := uint32(5)
		for i := range b {
			x = x*1664525 + 1013904223
			b[i] = byte(x >> 24)
		}
		return b
	}()
	probeSink uint64
)

// hostProbe runs the probe once and returns how long it took.
func hostProbe() time.Duration {
	t0 := time.Now()
	var a, b, c, d uint16
	n := len(probeInput) / 4
	in := probeInput
	for i := 0; i < n; i++ {
		a = probeTable[(a^uint16(in[i]))&(probeTableLen-1)]
		b = probeTable[(b^uint16(in[n+i]))&(probeTableLen-1)]
		c = probeTable[(c^uint16(in[2*n+i]))&(probeTableLen-1)]
		d = probeTable[(d^uint16(in[3*n+i]))&(probeTableLen-1)]
	}
	probeSink += uint64(a) + uint64(b) + uint64(c) + uint64(d)
	return time.Since(t0)
}

// probeMedian runs the probe n times and returns the median in ms.
func probeMedian(n int) float64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(hostProbe())
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return ms(quantile(v, 0.5))
}
