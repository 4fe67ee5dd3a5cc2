package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"rocksalt/internal/core"
	"rocksalt/internal/flight"
)

// metricDef names one reported metric and its unit. The two lists below
// are the single declaration of what the benchmark reports; the tests
// hold them equal to BENCHMARK.json.
type metricDef struct{ name, unit string }

// The end-to-end timings are scaled by the host probe (hostspeed.go):
// each call's latency is divided by the time of the probe run right
// after it, and the median ratio times probeNominalMs reads as the
// call's latency on the measurement host in a quiet period. setup_s is
// scaled the same way by probes in the set-up's own process.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"verdict_ms", "ms"},
	{"alloc_kib_per_op", "KiB"},
	{"heap_mib", "MiB"},
}

// infoDefs are reported and recorded but not declared in BENCHMARK.json:
// the raw timings, which on a shared host measure the neighbours as much
// as the checker (see README.md), the scaled 90th percentile, which
// spreads more than its bound would allow, and the peak RSS, which moves
// with when the garbage collector happens to run.
var infoDefs = []metricDef{
	{"ops_per_s", "ops/s"},
	{"verify_mb_s", "MB/s"},
	{"verdict_p90_ms", "ms"},
	{"verdict_p50_raw_ms", "ms"},
	{"verdict_p90_raw_ms", "ms"},
	{"setup_raw_s", "s"},
	{"probe_ms", "ms"},
	{"peak_rss_mib", "MiB"},
}

var layerDefs = []metricDef{
	{"policy.compile_ms", "ms"},
	{"checker.new_ms", "ms"},
	{"stage1.busy_ms", "ms"},
	{"stage1.mb_s", "MB/s"},
	{"stage1.shards", "count/op"},
	{"stage1.lane_batches", "count/op"},
	{"stage1.swar_batches", "count/op"},
	{"stage1.scalar_fallbacks", "count/op"},
	{"stage1.restarts", "count/op"},
	{"stage1.swar_backoffs", "count/op"},
	{"stage1.shard_ms.swar", "ms"},
	{"stage1.shard_ms.lanes", "ms"},
	{"stage1.shard_ms.fused-scalar", "ms"},
	{"reconcile.self_ms", "ms"},
	{"reconcile.share", "ratio"},
	{"jumps.busy_ms", "ms"},
	{"jumps.bad_targets", "count/op"},
	{"delta.chunks_reparsed", "count/op"},
	{"delta.chunks_replayed", "count/op"},
	{"delta.bytes_reparsed_mib", "MiB"},
	{"delta.reparse_amplification", "ratio"},
	{"delta.full_reparse_rounds", "ratio"},
	{"delta.stage1_ms", "ms"},
	{"delta.reconcile_ms", "ms"},
	{"delta.reparse_shard_ms", "ms"},
	{"stream.read_wait_ms", "ms"},
	{"stream.stage1_ms", "ms"},
	{"stream.reconcile_ms", "ms"},
	{"stream.harvest_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.events", "count/op"},
	{"trace.complete", "bool"},
}

// Every per-op metric ("ms", "count/op", "MiB" of a layer) is a mean
// over the ops of its phase.

// shardsPerChunk is the delta state's granularity (64 KiB chunks) in
// stage-1 shards.
const shardsPerChunk = (64 << 10) / core.ShardBytes

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	warmup   time.Duration
	// ops, when positive, fixes the timed phase at that many ops and
	// the warm-up at warmOps (the tests use it instead of durations).
	ops, warmOps int
	trace        bool
	// setups is the number of child processes that time set-up; 0 times
	// it once in this process.
	setups int
	sc     scale
}

// result is one run's record, written as the host-stamped results JSON.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      hostMeta           `json:"host"`
	GenS      float64            `json:"gen_s"`
	WarmupOps int                `json:"warmup_ops"`
	TimedOps  int                `json:"timed_ops"`
	TracedOps int                `json:"traced_ops"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Correct   bool               `json:"correct"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Info      map[string]float64 `json:"info"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// runner drives one workload and checks every verdict.
type runner struct {
	w   workload
	res *result
}

// protect makes the op's call, turning a panic into an error.
func protect(w workload) (rep *core.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return w.call()
}

// do runs the next op: materialize its input, time the call, check the
// verdict. Only the call is inside the timer.
func (r *runner) do() (*core.Report, time.Duration) {
	r.w.next()
	return r.call()
}

// call times the op's call and checks its verdict.
func (r *runner) call() (*core.Report, time.Duration) {
	t0 := time.Now()
	rep, err := protect(r.w)
	lat := time.Since(t0)
	r.check(rep, err)
	return rep, lat
}

// check compares a verdict with the op's known answer.
func (r *runner) check(rep *core.Report, err error) {
	r.res.Attempted++
	poison, bundle := r.w.expect()
	var msg string
	switch {
	case err != nil:
		msg = err.Error()
	case rep == nil:
		msg = "no report"
	case rep.Outcome != core.OutcomeSafe && rep.Outcome != core.OutcomeRejected:
		msg = "run did not complete: " + rep.Outcome.String()
	case poison < 0 && !rep.Safe:
		msg = fmt.Sprintf("safe image rejected: %v", rep.Err())
	case poison >= 0 && rep.Safe:
		msg = fmt.Sprintf("image poisoned at %#x accepted", poison)
	case poison >= 0:
		if f := rep.First(); f == nil || f.Offset < poison || f.Offset >= poison+bundle {
			msg = fmt.Sprintf("first violation %v outside the poison bundle at %#x", f, poison)
		}
	}
	if msg == "" {
		return
	}
	r.res.Failed++
	if len(r.res.Failures) < 10 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf("op %d: %s", r.res.Attempted, msg))
	}
}

// tally accumulates the timed phase: per-op latencies, probe-scaled
// latencies and allocations, and the sums of every Stats field the
// layer metrics need. Its slices are allocated before the phase starts.
type tally struct {
	lat, probes, allocs                     []int64
	scaled                                  []float64
	bytes, parsed, edited, wait             int64
	stage1, stage2, jumps, wall             int64
	shards, lanes, swars, scalars, restarts int64
	deltaOps, dReparsed, dReplayed, dBytes  int64
	dFull, dStage1, dStage2                 int64
}

func newTally(n int) *tally {
	return &tally{lat: make([]int64, 0, n), probes: make([]int64, 0, n), allocs: make([]int64, 0, n), scaled: make([]float64, 0, n)}
}

func isDelta(s *core.Stats) bool { return s.DeltaChunksReparsed+s.DeltaChunksReplayed > 0 }

func (t *tally) add(rep *core.Report, lat time.Duration, o opInfo) {
	t.lat = append(t.lat, int64(lat))
	t.bytes += o.bytes
	t.edited += o.edited
	t.wait += o.wait
	if rep == nil {
		return
	}
	s := &rep.Stats
	t.stage1 += int64(s.Stage1Wall)
	t.stage2 += int64(s.Stage2Wall)
	t.jumps += int64(s.JumpsWall)
	t.wall += int64(s.Wall)
	t.shards += s.Shards
	t.lanes += s.LaneBatches
	t.swars += s.SWARBatches
	t.scalars += s.ScalarFallbacks
	t.restarts += s.Restarts
	if isDelta(s) {
		t.deltaOps++
		t.dReparsed += s.DeltaChunksReparsed
		t.dReplayed += s.DeltaChunksReplayed
		t.dBytes += s.DeltaBytesReparsed
		if s.DeltaChunksReplayed == 0 {
			t.dFull++
		}
		t.dStage1 += int64(s.Stage1Wall)
		t.dStage2 += int64(s.Stage2Wall)
		t.parsed += s.DeltaBytesReparsed
	} else {
		t.parsed += s.BytesScanned
	}
}

// traceTally folds the flight events of the traced replay.
type traceTally struct {
	ops                  int
	traced, untraced     int64
	shardNs              map[string]int64
	backoffs, badTargets int64
	deltaNs, harvestNs   int64
	events               int64
	complete             bool
}

// fold takes the events one traced call recorded (those starting at or
// after start; the ring also holds earlier calls) and checks that the
// trace saw every shard the call parsed.
func (tt *traceTally) fold(evs []flight.Event, start int64, rep *core.Report, o opInfo, lat int64, stream bool) {
	tt.ops++
	tt.traced += lat
	var shards, shardNs int64
	for _, ev := range evs {
		if ev.Start < start {
			continue
		}
		tt.events++
		switch ev.Kind {
		case flight.SpanShard:
			shards++
			shardNs += ev.Dur
			tt.shardNs[ev.Engine.String()] += ev.Dur
		case flight.EventSWARBackoff:
			tt.backoffs++
		case flight.SpanJumps:
			tt.badTargets += ev.Bytes
		}
	}
	if rep == nil {
		tt.complete = false
		return
	}
	s := &rep.Stats
	if shards != s.Shards-shardsPerChunk*s.DeltaChunksReplayed {
		tt.complete = false
	}
	if isDelta(s) {
		tt.deltaNs += shardNs
	}
	if stream {
		tt.harvestNs += int64(s.Stage1Wall) - o.wait - shardNs
	}
}

// run executes one workload run: set-up, inputs, warm-up, the timed
// phase, the rejection check and, with cfg.trace, the traced replay.
func run(cfg config) (*result, error) {
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace,
		Host: hostInfo(), EndToEnd: map[string]float64{}, Info: map[string]float64{}, PerLayer: map[string]float64{}}
	setup, err := measureSetup(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// The timed phase's own arrays are allocated before the heap baseline,
	// so that heap_mib counts only the checker, its inputs and its state.
	tl := newTally(1 << 18)
	base := liveHeap()
	t0 := time.Now()
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.sc)
	if err != nil {
		return nil, err
	}
	res.GenS = time.Since(t0).Seconds()
	r := &runner{w: w, res: res}

	start := time.Now()
	for n := 0; ; n++ {
		if n >= w.minWarmup() && (cfg.ops > 0 && n >= cfg.warmOps || cfg.ops <= 0 && time.Since(start) >= cfg.warmup) {
			res.WarmupOps = n
			break
		}
		r.do()
	}

	var mem runtime.MemStats
	runtime.GC() // the warm-up's garbage is not collected on the timed clock
	start = time.Now()
	for n := 0; ; n++ {
		if cfg.ops > 0 && n >= cfg.ops || cfg.ops <= 0 && n > 0 && time.Since(start) >= cfg.seconds {
			break
		}
		w.next()
		runtime.ReadMemStats(&mem)
		a0 := mem.TotalAlloc
		rep, lat := r.call()
		runtime.ReadMemStats(&mem)
		tl.allocs = append(tl.allocs, int64(mem.TotalAlloc-a0))
		probe := hostProbe()
		tl.probes = append(tl.probes, int64(probe))
		tl.scaled = append(tl.scaled, float64(lat)/float64(probe))
		tl.add(rep, lat, w.op())
	}
	n := len(tl.lat)
	res.TimedOps = n
	heap := liveHeap() - base
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF

	// The rejection check: poisoned inputs through the workload's own
	// call, each followed by an ordinary op, untimed.
	for i := 0; i < rejectOps; i++ {
		w.poison()
		r.call()
		r.do()
	}

	sum := int64(0)
	for _, l := range tl.lat {
		sum += l
	}
	sorted := sortedCopy(tl.lat)
	scaled := append([]float64(nil), tl.scaled...)
	sort.Float64s(scaled)
	e := res.EndToEnd
	e["setup_s"] = setup.Scaled
	e["verdict_ms"] = quantile(scaled, 0.5) * probeNominalMs
	// The allocation metric is the mean of the lowest three quarters of
	// the bytes each call allocated. The calls left out are where the
	// engine's per-P scratch pool misses and a call allocates a whole
	// image's bitmaps; how often that happens depends on which
	// processor the caller wakes up on, and it swung the plain mean
	// tenfold between identical runs.
	e["alloc_kib_per_op"] = trimmedMean(sortedCopy(tl.allocs), 0.75) / 1024
	e["heap_mib"] = float64(heap) / mib
	info := res.Info
	info["ops_per_s"] = float64(n) / secs(sum)
	info["verify_mb_s"] = float64(tl.bytes) / 1e6 / secs(sum)
	info["verdict_p90_ms"] = quantile(scaled, 0.9) * probeNominalMs
	info["verdict_p50_raw_ms"] = ms(quantile(sorted, 0.50))
	info["verdict_p90_raw_ms"] = ms(quantile(sorted, 0.90))
	info["setup_raw_s"] = setup.Setup
	info["probe_ms"] = ms(quantile(sortedCopy(tl.probes), 0.5))
	info["peak_rss_mib"] = float64(ru.Maxrss) / 1024

	fn := float64(n)
	l := res.PerLayer
	l["policy.compile_ms"] = setup.Compile * 1e3
	l["checker.new_ms"] = setup.New * 1e3
	l["stage1.busy_ms"] = ms(float64(tl.stage1) / fn)
	l["stage1.mb_s"] = ratio(float64(tl.parsed)/1e6, secs(tl.stage1))
	l["stage1.shards"] = float64(tl.shards) / fn
	l["stage1.lane_batches"] = float64(tl.lanes) / fn
	l["stage1.swar_batches"] = float64(tl.swars) / fn
	l["stage1.scalar_fallbacks"] = float64(tl.scalars) / fn
	l["stage1.restarts"] = float64(tl.restarts) / fn
	l["reconcile.self_ms"] = ms(float64(tl.stage2-tl.jumps) / fn)
	l["reconcile.share"] = ratio(float64(tl.stage2), float64(tl.wall))
	l["jumps.busy_ms"] = ms(float64(tl.jumps) / fn)
	if tl.deltaOps > 0 {
		dn := float64(tl.deltaOps)
		l["delta.chunks_reparsed"] = float64(tl.dReparsed) / dn
		l["delta.chunks_replayed"] = float64(tl.dReplayed) / dn
		l["delta.bytes_reparsed_mib"] = float64(tl.dBytes) / mib / dn
		l["delta.reparse_amplification"] = ratio(float64(tl.dBytes), float64(tl.edited))
		l["delta.full_reparse_rounds"] = float64(tl.dFull) / dn
		l["delta.stage1_ms"] = ms(float64(tl.dStage1) / dn)
		l["delta.reconcile_ms"] = ms(float64(tl.dStage2) / dn)
	}
	stream := cfg.workload == "stream"
	if stream {
		l["stream.read_wait_ms"] = ms(float64(tl.wait) / fn)
		l["stream.stage1_ms"] = ms(float64(tl.stage1) / fn)
		l["stream.reconcile_ms"] = ms(float64(tl.stage2) / fn)
	}
	for _, d := range layerDefs {
		if _, ok := l[d.name]; !ok {
			l[d.name] = 0
		}
	}

	if cfg.trace {
		w2, err := newWorkload(cfg.workload, cfg.seed, cfg.sc)
		if err != nil {
			return nil, err
		}
		tt, err := r.replay(w2, (n+3)/4, stream)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		res.TracedOps = tt.ops
		to := float64(tt.ops)
		l["stage1.swar_backoffs"] = float64(tt.backoffs) / to
		l["stage1.shard_ms.swar"] = ms(float64(tt.shardNs["swar"]) / to)
		l["stage1.shard_ms.lanes"] = ms(float64(tt.shardNs["lanes"]) / to)
		l["stage1.shard_ms.fused-scalar"] = ms(float64(tt.shardNs["fused-scalar"]) / to)
		l["jumps.bad_targets"] = float64(tt.badTargets) / to
		if tl.deltaOps > 0 {
			l["delta.reparse_shard_ms"] = ms(float64(tt.deltaNs) / to)
		}
		if stream {
			l["stream.harvest_ms"] = ms(float64(tt.harvestNs) / to)
		}
		l["trace.overhead_pct"] = 100 * (float64(tt.traced)/float64(tt.untraced) - 1)
		l["trace.events"] = float64(tt.events) / to
		if tt.complete {
			l["trace.complete"] = 1
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// replay runs the workload's first k ops on two instances in lockstep,
// both from the initial state (for jit-edit, a freshly built delta
// state): each op runs untraced on r's instance, then traced on
// twin, with a flight recorder installed for that call only. Pairing
// the calls op by op keeps the host's drift out of the recorder's
// overhead.
func (r *runner) replay(twin workload, k int, stream bool) (*traceTally, error) {
	if err := r.w.reset(); err != nil {
		return nil, err
	}
	rt := &runner{w: twin, res: r.res}
	// Size the rings so that no single call wraps one.
	slots := 1
	for slots < twin.maxEvents() {
		slots *= 2
	}
	fr := flight.NewRecorder(slots)
	tt := &traceTally{shardNs: map[string]int64{}, complete: true}
	for i := 0; i < k; i++ {
		_, lat := r.do()
		tt.untraced += int64(lat)
		twin.next()
		flight.SetGlobal(fr)
		start := fr.Now()
		t0 := time.Now()
		rep, err := protect(twin)
		lat = time.Since(t0)
		flight.SetGlobal(nil)
		rt.check(rep, err)
		tt.fold(fr.Snapshot(), start, rep, twin.op(), int64(lat), stream)
	}
	return tt, nil
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile interpolates linearly between the closest ranks of sorted
// (0 for an empty sample).
func quantile[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(math.Floor(pos))
	if i+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	f := pos - float64(i)
	return float64(sorted[i])*(1-f) + float64(sorted[i+1])*f
}

// trimmedMean is the mean of the lowest share of sorted.
func trimmedMean(sorted []int64, share float64) float64 {
	k := int(math.Ceil(share * float64(len(sorted))))
	if k == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range sorted[:k] {
		sum += float64(v)
	}
	return sum / float64(k)
}

// liveHeap collects the garbage and returns the bytes of heap objects
// still reachable. Unlike the resident set, it does not depend on when
// the collector ran or how much freed memory the runtime has returned
// to the system. It collects twice: the first collection only moves
// the engine's pooled scratch to sync.Pool's victim cache, and how much
// scratch the pools held varied from run to run.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }
func ms(ns float64) float64 { return ns / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
