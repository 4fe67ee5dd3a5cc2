package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
)

// minVsReference is the same-run floor on the default engine's
// one-worker throughput over the Figure-5 reference loop it rewinds
// to: the speed the deleted fused scalar walk had over that loop
// (1.18-1.20x on a 2-vCPU Xeon), so the default must stay at least
// that far ahead.
const minVsReference = 1.2

// benchScale is the core-scaling sweep: stage-1 throughput as a
// function of the -j worker count, chasing the memory-bandwidth
// ceiling. The bundle invariant makes shards independent, so
// throughput should climb with workers until the shared L3/memory
// system saturates; the sweep records every point (MB/s, speedup vs
// sequential, parallel efficiency) plus the knee — the worker count
// past which adding cores stopped paying ≥10% — in BENCH_scale.json
// (host-stamped). A 1-CPU host cannot measure scaling, so there the
// record says "unmeasured (1 CPU)" and carries no best speedup or
// knee. The CI smoke — exit-coded under -quick — holds the
// invariants that are true on any machine: every point returns the
// same verdict, no point collapses below half the sequential
// throughput, and the one-worker default runs at least minVsReference
// times the reference loop timed on the same image in the same run.
func benchScale() {
	header("scale", "core-scaling sweep (extension)",
		"beyond the paper: sharded stage 1 scales across cores until memory bandwidth, not the checker, is the ceiling")

	c, err := core.NewChecker()
	if err != nil {
		panic(err)
	}
	n := 400000
	rounds := 10
	if *quick {
		n, rounds = 40000, 3
	}
	img, err := nacl.NewGenerator(3).Random(n)
	if err != nil {
		panic(err)
	}
	if !c.Verify(img) {
		panic("benchmark image rejected")
	}
	mb := float64(len(img)) / 1e6

	// Powers of two up to twice the core count (the oversubscribed point
	// shows scheduling overhead, not speedup), with the exact core count
	// always included.
	cores := runtime.NumCPU()
	var workerSet []int
	for w := 1; w <= 2*cores; w *= 2 {
		workerSet = append(workerSet, w)
	}
	if last := workerSet[len(workerSet)-1]; last != cores && last != 2*cores {
		workerSet = append(workerSet, cores)
	}

	type point struct {
		Workers    int     `json:"workers"`
		NsPerOp    float64 `json:"ns_per_op"`
		MBPerS     float64 `json:"mb_per_s"`
		Speedup    float64 `json:"speedup"`
		Efficiency float64 `json:"efficiency"`
	}
	var points []point
	var seqNs float64
	invariant := true
	knee := 1
	for _, w := range workerSet {
		opts := core.VerifyOptions{Workers: w}
		rep := c.VerifyWith(img, opts)
		if !rep.Safe || rep.Total != 0 {
			invariant = false
			fmt.Printf("   workers=%-3d VERDICT DIVERGED (safe=%v)\n", w, rep.Safe)
			continue
		}
		d := bestOf(rounds, func() { c.VerifyWith(img, opts) })
		p := point{Workers: w, NsPerOp: float64(d.Nanoseconds()), MBPerS: mb / d.Seconds()}
		if w == 1 {
			seqNs = p.NsPerOp
		}
		p.Speedup = seqNs / p.NsPerOp
		p.Efficiency = p.Speedup / float64(w)
		if len(points) > 0 && p.Speedup >= points[len(points)-1].Speedup*1.10 {
			knee = w
		}
		points = append(points, p)
		fmt.Printf("   workers=%-3d %12.0f ns/op %9.1f MB/s  speedup %5.2fx  efficiency %4.0f%%\n",
			p.Workers, p.NsPerOp, p.MBPerS, p.Speedup, p.Efficiency*100)
	}

	// The same-run floor: the reference loop on one worker, against
	// the sweep's one-worker point.
	ropts := core.VerifyOptions{Workers: 1, Engine: core.EngineReference}
	if !c.VerifyWith(img, ropts).Safe {
		panic("reference loop rejected the benchmark image")
	}
	ref := bestOf(rounds, func() { c.VerifyWith(img, ropts) })
	vsRef := float64(ref.Nanoseconds()) / seqNs
	fmt.Printf("   reference   %12.0f ns/op %9.1f MB/s  (1-worker default: %.2fx it)\n",
		float64(ref.Nanoseconds()), mb/ref.Seconds(), vsRef)

	best := 0.0
	for _, p := range points {
		if p.Speedup > best {
			best = p.Speedup
		}
	}
	out := struct {
		GeneratedBy string   `json:"generated_by"`
		Quick       bool     `json:"quick"`
		Host        hostMeta `json:"host"`
		Bytes       int      `json:"bytes"`
		Rounds      int      `json:"rounds"`
		Points      []point  `json:"results"`
		Scaling     string   `json:"scaling"`
		KneeWorkers *int     `json:"knee_workers,omitempty"`
		BestSpeedup *float64 `json:"best_speedup,omitempty"`
	}{
		GeneratedBy: "go run ./cmd/experiments -run scale",
		Quick:       *quick,
		Host:        hostInfo(),
		Bytes:       len(img),
		Rounds:      rounds,
		Points:      points,
		Scaling:     "unmeasured (1 CPU)",
	}
	if cores >= 2 {
		out.Scaling = fmt.Sprintf("measured (%d CPUs)", cores)
		out.KneeWorkers, out.BestSpeedup = &knee, &best
		fmt.Printf("   knee: %d worker(s) on %d core(s) (last point that bought >= 10%%)\n", knee, cores)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err)
	}
	if err := os.WriteFile("BENCH_scale.json", append(data, '\n'), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("   wrote BENCH_scale.json (%d points, scaling %s)\n", len(points), out.Scaling)

	// No point may collapse: oversubscription costs scheduling, never
	// half the sequential throughput.
	floor := true
	for _, p := range points {
		if p.Speedup < 0.5 {
			floor = false
		}
	}
	ok := invariant && floor && len(points) == len(workerSet) && vsRef >= minVsReference
	if *quick {
		fmt.Printf("   verdict: %s (quick: verdicts worker-invariant, no point below 0.5x sequential, 1-worker default >= %.1fx reference)\n",
			pass(ok), minVsReference)
		if !ok {
			os.Exit(1)
		}
		return
	}
	if cores >= 4 {
		fmt.Printf("   verdict: %s (>= 2x speedup expected with %d cores; 1-worker default >= %.1fx reference)\n",
			pass(ok && best >= 2), cores, minVsReference)
	} else {
		fmt.Printf("   verdict: %s (only %d core(s); sequential parity and 1-worker default >= %.1fx reference are the bar — the sweep records the ceiling for multi-core hosts)\n",
			pass(ok), cores, minVsReference)
	}
}
