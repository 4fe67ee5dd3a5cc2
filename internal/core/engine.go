package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"rocksalt/internal/bitset"
	"rocksalt/internal/flight"
	"rocksalt/internal/telemetry"
	"rocksalt/internal/vcache"
)

// This file is the staged verification engine. The NaCl policy itself
// licenses the decomposition: every 32-byte bundle boundary must be an
// instruction boundary and no matched unit (including the two-
// instruction masked pair) may straddle one, so the image partitions
// into aligned groups of bundles that parse independently.
//
// Stage 1 parses each shard, producing the shard's words of the
// instruction-boundary bitmap, the destinations of its direct jumps
// that land in other shards, and any shard-local violation: exactly
// what the Figure-5 verdict reads (Analyze derives the rest after the
// run, in analyze.go). By default a shard's whole-bundle region is
// walked by the four-lane lockstep parser over the fused product
// automaton (engine_lanes.go, fused.go), and any shard it finds
// irregular is re-parsed by the seed's three-sequential-DFA loop (the
// Figure-5 loop), which diagnoses every violation. That loop is also
// the reference engine, selectable per run, and the two engines are
// held byte-identical by FuzzFusedEquiv, FuzzPolicyEquiv and the
// fault-injection harness. Stage 2 is a cheap sequential
// reconciliation: it validates every collected jump target against the
// merged boundary map, flags unreached bundle boundaries, and sorts all
// violations by (offset, kind) so the reported first violation is
// identical no matter how many workers ran stage 1 and which engine
// matched the bytes.
//
// All per-run mutable state (the packed boundary bitmap and the shard
// result array) lives in a pooled scratch, and each in-flight shard
// parse borrows a pooled parseBuf, so steady-state Verify runs without
// allocating.

// EngineKind selects the stage-1 matcher.
type EngineKind uint8

const (
	// EngineFused walks the fused product automaton (the default): the
	// four-lane lockstep walk (engine_lanes.go) over each shard's
	// whole-bundle region, rewinding to the Figure-5 loop on any
	// irregularity and handing it whatever the lanes do not take. Its
	// Stats.Engine census name is "lanes".
	EngineFused EngineKind = iota
	// EngineReference runs the seed's Figure-5 loop on every shard: up
	// to three sequential DFA match attempts per offset. It is the
	// oracle the fused engine is held to, and the loop that diagnoses
	// every shard the lanes reject.
	EngineReference
)

// VerifyOptions configures a verification run.
type VerifyOptions struct {
	// Workers is the number of goroutines parsing stage-1 shards: 1 (or
	// an image smaller than one shard) runs in-line with no goroutines;
	// 0 or negative means runtime.GOMAXPROCS(0). The value is clamped by
	// clampWorkers — to the shard count and to MaxWorkers — so absurd
	// requests (Workers: 1<<30) cost nothing: no per-worker state is
	// allocated beyond the clamped count, and the report is identical to
	// the sequential one. Report.Workers records the clamped value.
	Workers int
	// Engine selects the stage-1 matcher; the zero value is the fused
	// product automaton. Reports are engine-invariant byte for byte.
	Engine EngineKind
	// Cache, when non-nil, attaches the content-addressed verdict cache
	// (see cache.go): Verify* runs first look up the whole image's
	// content key and return the cached Report on a hit; on a miss the
	// image's aligned 64KiB chunks are individually cached so a later
	// run re-parses only what changed. Requires fused tables (every
	// current bundle has them); ignored otherwise. Cached runs record
	// their effectiveness in Stats.CacheWholeHits et al.
	Cache *vcache.Cache
	// CacheKey, when non-nil, is a caller-computed key identifying this
	// exact (checker configuration, image) pair — obtained from a prior
	// Report.CacheKey for the same checker and bytes. A whole-image hit
	// under it skips even the hashing pass over the content, which is
	// what makes warm re-verification O(1). The caller vouches for the
	// association; a wrong key returns the wrong report. Ignored unless
	// Cache is set.
	CacheKey *vcache.Key
	// StreamSize is the total image size VerifyReader will stream,
	// which must be declared up front: direct-jump targets are
	// classified against the image size, so a verifier that discovered
	// the size only at EOF could not match full verification
	// byte-for-byte. 0 (or negative) makes VerifyReader buffer the
	// whole stream in memory instead. Ignored by the in-memory Verify*
	// entry points.
	StreamSize int64
}

// MaxWorkers is the hard ceiling on stage-1 workers. Beyond the machine
// parallelism extra goroutines only add scheduling overhead; the cap
// keeps a hostile or buggy caller from turning Workers into a
// goroutine-exhaustion vector on many-shard images.
const MaxWorkers = 1024

// clampWorkers is the single place worker-count hygiene lives: <= 0
// means all CPUs, and the result is bounded by the shard count, by
// MaxWorkers, and below by 1.
func clampWorkers(workers, shards int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > MaxWorkers {
		workers = MaxWorkers
	}
	if workers > shards {
		workers = shards
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ShardBytes is the stage-1 shard size: an aligned group of 512
// bundles. It is a constant rather than an option because the shard
// decomposition defines the canonical violation report — with a fixed
// decomposition, sequential and parallel runs agree byte-for-byte.
// It is also a multiple of 64, so shards own disjoint word ranges of
// the packed bitmaps and stage-1 workers need no synchronization.
const ShardBytes = 512 * BundleSize

// shardResult is what stage 1 reports per shard, besides the bitmap
// ranges it writes in place. Its slices are recycled through the
// scratch pool; reset truncates them while keeping their capacity.
type shardResult struct {
	// violations holds the shard-local violation that stopped the
	// parse, if any (at most one entry).
	violations []Violation
	// targets are the destinations of the shard's direct jumps that
	// land outside the shard, validated globally in stage 2. In-shard
	// targets are resolved at the end of the shard parse itself (the
	// shard's bitmap words are final then), overlapping stage-2 work
	// with stage 1; the failures land in bad. The parse collects every
	// target in its parseBuf, so only cross-shard ones take room here.
	targets []int32
	// bad holds in-shard jump targets already proven to miss an
	// instruction boundary; reconcile merges them with the cross-shard
	// failures before sorting and deduping.
	bad []int32
	// lane/scalar/restart classify how the shard was parsed (see
	// Stats.LaneBatches, ScalarFallbacks, Restarts); merged into the
	// run's Stats at reconciliation. A shard sets at most one.
	lane, scalar, restart bool
	// insns is the shard's instruction count: the population of the
	// boundary-bitmap words the shard owns, taken when its parse ends
	// or when a cache restore or stream harvest installs its words (a
	// delta round retains it with them). Reconcile sums it into
	// Stats.Instructions, so the census costs O(shards), not a popcount
	// of the whole image.
	insns int32
}

func (r *shardResult) reset() {
	r.violations = r.violations[:0]
	r.targets = r.targets[:0]
	r.bad = r.bad[:0]
	r.lane, r.scalar, r.restart = false, false, false
	r.insns = 0
}

// scratch is the reusable per-run state: the packed boundary bitmap
// and the shard result array. A sync.Pool recycles it across runs so a
// warmed checker verifies without allocating.
type scratch struct {
	valid   bitset.Set
	results []shardResult
	// base/imgSize place the byte slice handed to the parser inside the
	// logical image: the slice covers image offsets [base, base+len).
	// Ordinary runs parse the whole image, so base is 0 and imgSize is
	// len(code); the streaming verifier (stream.go) parses one window at
	// a time with base advanced chunk by chunk. Jump-target
	// classification and end-of-image straddle allowance use these
	// absolute coordinates so a windowed parse classifies targets
	// exactly as a whole-image parse would.
	base    int
	imgSize int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(size, shards int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.reset(size, shards)
	return sc
}

// reset readies sc for an image of size bytes in shards shards,
// keeping the capacity of its bitmap and result slices.
func (sc *scratch) reset(size, shards int) {
	sc.valid.Reset(size)
	sc.base, sc.imgSize = 0, size
	if cap(sc.results) < shards {
		sc.results = make([]shardResult, shards)
	} else {
		sc.results = sc.results[:shards]
	}
	for i := range sc.results {
		sc.results[i].reset()
	}
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// parseBuf is the working memory of one in-flight shard parse: the
// lanes' pass-1 state buffer (one byte per shard byte) and every
// in-image direct-jump target the parse found. Stage-1 workers parse
// shards of the same run concurrently, so each parse takes its own from
// parseBufPool, which holds the steady state at one per worker.
type parseBuf struct {
	states  [ShardBytes]byte
	targets []int32
}

var parseBufPool = sync.Pool{New: func() any { return new(parseBuf) }}

// VerifyWith runs the staged engine and returns the structured report.
func (c *Checker) VerifyWith(code []byte, opts VerifyOptions) *Report {
	return c.VerifyContext(context.Background(), code, opts)
}

// VerifyContext is VerifyWith under a context. Stage-1 shard workers
// check for cancellation between shards; once the context is done the
// run stops promptly and returns a report with Outcome Canceled or
// Deadline (and Safe == false) instead of a partial verdict. A canceled
// run never reports Safe and never surfaces the nondeterministic subset
// of violations it happened to reach.
func (c *Checker) VerifyContext(ctx context.Context, code []byte, opts VerifyOptions) *Report {
	if opts.Cache != nil && c.fused != nil {
		return c.verifyCached(ctx, code, opts)
	}
	sc := getScratch(len(code), shardCount(len(code)))
	defer putScratch(sc)
	var st Stats
	rep := c.report(c.run(ctx, code, opts, sc, &st, nil), len(code))
	rep.Stats = st
	return rep
}

// verifyLean is the allocation-free boolean path behind Verify: it runs
// the engine on pooled scratch and never materializes a Report. Stats
// collection is skipped entirely unless global telemetry is enabled —
// the disabled path's whole observability cost is this one branch —
// and when it is enabled, the Stats live on the stack and publication
// is atomic adds, so the path stays allocation-free either way.
func (c *Checker) verifyLean(code []byte) bool {
	sc := getScratch(len(code), shardCount(len(code)))
	defer putScratch(sc)
	var st *Stats
	var stv Stats
	if telemetry.Enabled() {
		st = &stv
	}
	out := c.run(context.Background(), code, VerifyOptions{Workers: 1}, sc, st, nil)
	return out.ctxErr == nil && out.total == 0
}

func shardCount(size int) int {
	return (size + ShardBytes - 1) / ShardBytes
}

// testShardHook, when non-nil, runs at the start of every stage-1 shard
// parse with the shard's index in the image (a streamed window's shards
// report their image-wide index, not the window-relative one). Tests
// use it to inject cancellation and panics mid-stage-1; it is never set
// in production.
var testShardHook func(shard int)

// runResult is what finish hands to the report builders: the reconciled,
// sorted, capped violation list (nil for a safe completed run), the
// uncapped total, the clamped worker count, and the context error for
// an interrupted run.
type runResult struct {
	violations []Violation
	total      int
	shards     int
	workers    int
	ctxErr     error
}

// report materializes a runResult as a caller-owned Report.
func (c *Checker) report(out runResult, size int) *Report {
	if out.ctxErr != nil {
		outc := OutcomeCanceled
		if out.ctxErr == context.DeadlineExceeded {
			outc = OutcomeDeadline
		}
		return &Report{
			Safe:    false,
			Outcome: outc,
			Size:    size,
			Shards:  out.shards,
			Workers: out.workers,
			ctxErr:  out.ctxErr,
		}
	}
	outcome := OutcomeSafe
	if out.total > 0 {
		outcome = OutcomeRejected
	}
	return &Report{
		Safe:       out.total == 0,
		Outcome:    outcome,
		Size:       size,
		Shards:     out.shards,
		Workers:    out.workers,
		Violations: out.violations,
		Total:      out.total,
	}
}

// call is one verification call from begin to finish: the skeleton
// Verify (run), VerifyDelta and VerifyReader share, each supplying only
// its own stage-1 plan in between. It holds no *Stats on purpose:
// escape analysis is field-insensitive, so a Stats pointer stored
// beside the recorder that reaches the worker pool would move the lean
// path's stack Stats to the heap.
type call struct {
	shards, workers int
	engine          EngineKind
	fr              *flight.Recorder
	t0              time.Time
	// span is the call's closing flight span as begin opens it: SpanRun
	// over the image, which a delta round turns into SpanDelta over the
	// bytes it re-parses. span.Run is the call's flight run id.
	span flight.Event
}

// begin opens a call over an image of size bytes: the Stats size
// facts, the engine every shard uses, and the flight run. One atomic
// load decides whether the call records spans; with no recorder
// installed that load is the recorder's whole cost, which keeps Verify
// at 0 allocs/op.
func (c *Checker) begin(size int, opts VerifyOptions, st *Stats) call {
	k := call{shards: shardCount(size), fr: flight.Active()}
	if st != nil {
		k.t0 = time.Now()
	}
	k.engine = opts.Engine
	k.span = flight.Event{Kind: flight.SpanRun, Engine: runFlightEngine(k.engine), Bytes: int64(size)}
	if st != nil {
		st.BytesScanned = int64(size)
		st.Bundles = int64((size + c.params.bundle - 1) / c.params.bundle)
		st.Shards = int64(k.shards)
		st.Engine = k.span.Engine.String()
	}
	if k.fr != nil {
		k.span.Run, k.span.Start = k.fr.BeginRun(), k.fr.Now()
	}
	return k
}

// finish closes a call once its stage-1 plan is done; err is ctx.Err()
// as the plan saw it after its last dispatch. An interrupted plan may
// have left shards unparsed, so none of it reaches stage 2 and the
// result reports Canceled or Deadline. A completed plan runs stage 2
// over sc, and the parse-mode census counts the shards this call
// parsed (list, or every shard of sc when list is nil, as in
// dispatch), never those restored from the chunk cache or retained by
// a delta state. Either way finish records the wall time, publishes the
// Stats and closes the call's flight span.
func (c *Checker) finish(ctx context.Context, k *call, err error, code []byte, sc *scratch, list []int, st *Stats) runResult {
	out := runResult{shards: k.shards, workers: k.workers, ctxErr: err}
	if err == nil {
		var t1 time.Time
		if st != nil {
			t1 = time.Now()
		}
		var frt1 int64
		if k.fr != nil {
			frt1 = k.fr.Now()
		}
		endReconcile := telemetry.Region(ctx, "rocksalt.stage2.reconcile")
		out.violations, out.total = c.reconcile(ctx, code, sc, st, k.fr, k.span.Run)
		endReconcile()
		if k.fr != nil {
			k.fr.Record(flight.Event{Kind: flight.SpanReconcile, Run: k.span.Run,
				Start: frt1, Dur: k.fr.Now() - frt1, Bytes: int64(out.total)})
		}
		if st != nil {
			for i := 0; i < planLen(list, sc); i++ {
				r := &sc.results[pick(i, list)]
				if r.lane {
					st.LaneBatches++
				}
				if r.scalar {
					st.ScalarFallbacks++
				}
				if r.restart {
					st.Restarts++
				}
			}
			st.Stage2Wall = time.Since(t1)
		}
	}
	if st != nil {
		st.Wall = time.Since(k.t0)
		publishStats(st, err != nil, out.total > 0)
	}
	if k.fr != nil {
		k.span.Dur = k.fr.Now() - k.span.Start
		k.fr.Record(k.span)
	}
	return out
}

// run is Verify's stage-1 plan: every shard of the image, less those
// the chunk cache restores. Shard workers poll ctx between shards and
// panics inside a shard parse are converted to InternalFault
// violations, so a hostile image (or a bug behind it) can stop the run
// early or fail it closed, but can neither hang the pool nor crash the
// process. st, when non-nil, receives the per-run Stats; everything
// written to it is stack- or scratch-resident, so collecting it never
// allocates.
func (c *Checker) run(ctx context.Context, code []byte, opts VerifyOptions, sc *scratch, st *Stats, cc *cacheCtx) runResult {
	k := c.begin(len(code), opts, st)
	k.workers = clampWorkers(opts.Workers, k.shards)
	cached := cc != nil && len(cc.keys) > 0
	var list []int
	if cached {
		cc.fr, cc.frun = k.fr, k.span.Run
		list = c.probeChunks(cc, sc, st)
	}
	endStage1 := telemetry.Region(ctx, "rocksalt.stage1.parse")
	stage1{c: c, code: code, sc: sc, engine: k.engine, fr: k.fr, frun: k.span.Run}.dispatch(ctx, k.workers, list)
	endStage1()
	if st != nil {
		st.Stage1Wall = time.Since(k.t0)
	}
	err := ctx.Err()
	if cached && err == nil {
		// The run completed, so every freshly-parsed clean chunk's
		// artifacts are final; bank them for the next run.
		c.storeChunks(cc, sc, list)
	}
	return c.finish(ctx, &k, err, code, sc, list, st)
}

// runFlightEngine maps the run's engine to the flight recorder's enum,
// whose name is also the run's Stats.Engine census value, so "what
// actually ran" reads the same in -stats/-json output and in traces.
func runFlightEngine(e EngineKind) flight.Engine {
	if e == EngineReference {
		return flight.EngineReference
	}
	return flight.EngineLanes
}

// shardFlightEngine classifies how one shard was actually parsed, from
// its result flags — finer-grained than the run-level engine because a
// shard the lanes rewind, or do not take, is parsed by the reference
// loop.
func shardFlightEngine(res *shardResult) flight.Engine {
	if res.lane {
		return flight.EngineLanes
	}
	return flight.EngineReference
}

// stage1 is what every shard parse of one stage-1 pass shares: the
// bytes, the scratch the shards write, the engine and the flight run.
// Verify and VerifyDelta parse the whole image in place, so local and
// image shard indices agree (g0 is 0); VerifyReader parses one window,
// whose local shard 0 is image shard g0.
type stage1 struct {
	c      *Checker
	code   []byte
	sc     *scratch
	engine EngineKind
	fr     *flight.Recorder
	frun   uint32
	g0     int
	// after, when non-nil, runs on the worker that parsed local shard
	// s (image shard gs), right after the parse: the streaming
	// verifier's harvest.
	after func(s, gs int)
}

func (p *stage1) parse(s, w int) {
	p.c.parseShardAt(p.code, s, p.g0+s, p.sc, p.engine, p.fr, p.frun, w)
	if p.after != nil {
		p.after(s, p.g0+s)
	}
}

// dispatch is stage 1's worker pool, the one loop Verify, VerifyDelta
// and VerifyReader all parse through. It parses the plan's local shards
// — list, or every shard of p.sc when list is nil — on workers
// goroutines, and returns once they are done. One worker parses
// in-line, with no goroutines or channel, so the lean path stays
// allocation-free.
//
// Workers write disjoint [start,end) bit ranges of the shared bitmaps
// and disjoint result entries; ShardBytes is a multiple of 64, so the
// ranges are also word-disjoint and no synchronization is needed beyond
// the pool's. Workers poll ctx.Err between shards: one atomic load per
// 16 KiB shard parse, observed synchronously (a cancel that
// happened-before a shard starts is always seen). A caller that finds
// ctx done afterwards must treat the pass as interrupted: the shards
// skipped after the cancel hold no artifacts.
func (p stage1) dispatch(ctx context.Context, workers int, list []int) {
	n := planLen(list, p.sc)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			p.parse(pick(i, list), 0)
		}
		return
	}
	d := &shardPool{stage1: p, ctx: ctx, jobs: make(chan int, n)}
	d.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go d.work(w)
	}
	for i := 0; i < n; i++ {
		d.jobs <- pick(i, list)
	}
	close(d.jobs)
	d.wg.Wait()
}

// planLen is the length of a stage-1 plan over sc: len(list), or every
// shard of sc when list is nil.
func planLen(list []int, sc *scratch) int {
	if list != nil {
		return len(list)
	}
	return len(sc.results)
}

// pick is entry i of a stage-1 plan: list[i], or shard i itself when
// list is nil.
func pick(i int, list []int) int {
	if list != nil {
		return list[i]
	}
	return i
}

// shardPool is one multi-worker dispatch. The workers share it through
// one pointer, which keeps each goroutine's closure to that pointer and
// its worker index.
type shardPool struct {
	stage1
	ctx  context.Context
	jobs chan int // buffered to hold every job, so the producer never blocks
	wg   sync.WaitGroup
}

func (d *shardPool) work(w int) {
	defer d.wg.Done()
	for s := range d.jobs {
		if d.ctx.Err() != nil {
			// Returning early cannot block the producer: the channel
			// holds every job.
			return
		}
		d.parse(s, w)
	}
}

// parseShardAt runs stage 1 on local shard s of code, which is image
// shard gs, containing panics as InternalFault violations so the worker
// (and the pool behind it) survives. Flight records and panic details
// name the image shard while offsets stay local (a streamed window's
// harvest translates them). fr, when non-nil, receives a SpanShard
// record tagged with the worker index w.
func (c *Checker) parseShardAt(code []byte, s, gs int, sc *scratch, engine EngineKind, fr *flight.Recorder, frun uint32, w int) {
	res := &sc.results[s]
	start := s * ShardBytes
	end := start + ShardBytes
	if end > len(code) {
		end = len(code)
	}
	var ft0 int64
	if fr != nil {
		ft0 = fr.Now()
	}
	pb := parseBufPool.Get().(*parseBuf)
	defer parseBufPool.Put(pb)
	pb.targets = pb.targets[:0]
	defer func() {
		if r := recover(); r != nil {
			// Fail closed: a panicking shard becomes a structured
			// violation attributed to the shard start, carrying the
			// recovered value and stack. The worker itself survives,
			// so the pool drains normally instead of deadlocking on
			// a lost wg.Done. The global counter is bumped here, at
			// the containment site, so even a run that is later
			// canceled leaves the fault visible in metrics.
			coreMetrics.containedPanics.Add(1)
			res.targets = res.targets[:0]
			res.bad = res.bad[:0]
			res.violations = append(res.violations[:0], Violation{
				Offset: s * ShardBytes,
				Kind:   InternalFault,
				Detail: fmt.Sprintf("shard %d worker panicked: %v", gs, r),
				Stack:  string(debug.Stack()),
			})
		}
		// Counted after recovery, so a contained panic still counts the
		// boundaries the shard wrote before it.
		res.insns = int32(sc.valid.CountRange(start, end))
	}()
	if testShardHook != nil {
		testShardHook(gs)
	}
	if engine == EngineReference || c.fused == nil {
		res.scalar = true
		c.parseShardRef(code, start, end, sc, res, pb)
	} else {
		c.parseShardFused(code, start, end, sc, res, pb)
	}
	// Overlap stage 2 with stage 1: the shard's bitmap words are final
	// the moment its parse returns (shards own disjoint word ranges), so
	// its in-shard jump targets can be resolved here, on the parallel
	// workers, instead of on reconcile's serial path. Only cross-shard
	// targets — typically a small minority — are kept for stage 2;
	// proven failures are banked in res.bad and replayed by reconcile,
	// so the report is unchanged.
	for _, t := range pb.targets {
		if int(t) >= start && int(t) < end {
			if !sc.valid.Get(int(t)) {
				res.bad = append(res.bad, t)
			}
			continue
		}
		res.targets = append(res.targets, t)
	}
	if fr != nil {
		fr.Record(flight.Event{Kind: flight.SpanShard, Engine: shardFlightEngine(res),
			Worker: uint16(w), Shard: uint32(gs), Run: frun, Start: ft0, Dur: fr.Now() - ft0, Bytes: int64(end - start)})
	}
}

// stopShard appends the shard-local violation that ends a parse.
func stopShard(res *shardResult, code []byte, off int, kind ViolationKind, detail string) {
	res.violations = append(res.violations, violation(code, off, kind, detail))
}

// parseShardFused is stage 1 around the fused product automaton. The
// whole-bundle prefix of the shard runs through the lane parser, which
// assumes the image is compliant: its quarters as four lanes in
// lockstep (a prefix under four bundles as one lane). If it finds
// anything irregular its partial writes are erased and the Figure-5
// loop (parseShardRef) re-parses the shard from the start, so every
// violating shard is diagnosed by the reference itself. The loop also
// parses what the lanes do not take, continuing where they proved the
// prefix regular: a trailing partial bundle (only the image's last
// shard can have one), a shard with no whole bundle, and every shard
// of a checker whose bundle is over 64 bytes — the pass-2 boundary
// extraction masks bundle bits per 64-bit bitmap word (laneExtract),
// so a larger bundle has no in-word boundary to check.
func (c *Checker) parseShardFused(code []byte, start, end int, sc *scratch, res *shardResult, pb *parseBuf) {
	bundle := c.params.bundle
	full := start + (end-start)/bundle*bundle
	switch {
	case bundle > 64 || full == start:
		res.scalar = true
		full = start
	case c.parseShardLanes(code, start, full, sc, pb):
		res.lane = true
	default:
		sc.valid.ClearRange(start, end)
		pb.targets = pb.targets[:0]
		res.restart = true
		full = start
	}
	c.parseShardRef(code, full, end, sc, res, pb)
}

// parseShardRef is the reference stage 1: the seed's Figure 5 loop, up
// to three sequential DFA match attempts per offset, over [start, end).
// It is the oracle the fused engine is held byte-identical to, and the
// parser the fused engine rewinds to. start is a bundle boundary,
// which the policy requires to be an instruction boundary, so on any
// compliant image the shard-local parse reproduces exactly the
// boundaries the sequential parse would find. A matched unit extending
// past the shard end means that bundle boundary sits inside an
// instruction — itself a violation — so the shard stops there instead
// of racing into its neighbour's range.
func (c *Checker) parseShardRef(code []byte, start, end int, sc *scratch, res *shardResult, pb *parseBuf) {
	masked, noCF, direct := c.masked, c.noCF, c.direct
	pos := start
	for pos < end {
		sc.valid.Set(pos)
		saved := pos
		if match(masked, code, &pos) {
			if c.straddles(sc, res, code, saved, pos, end) {
				return
			}
			// The call form of the pair is FF /2 (0xD0|r in the modrm).
			if c.AlignedCalls && code[pos-1]>>3&7 == 2 && pos%c.params.bundle != 0 {
				stopShard(res, code, pos, MisalignedCall, "masked call leaves a misaligned return address")
				return
			}
			continue
		}
		if match(noCF, code, &pos) {
			if c.straddles(sc, res, code, saved, pos, end) {
				return
			}
			continue
		}
		if match(direct, code, &pos) {
			if c.straddles(sc, res, code, saved, pos, end) {
				return
			}
			if c.directJump(sc, res, pb, code, saved, pos) {
				return
			}
			continue
		}
		stopShard(res, code, saved, IllegalInstruction, "")
		return
	}
}

// straddles flags a matched unit extending past the shard end (a bundle
// boundary inside an instruction) unless the shard ends at the image
// end. The image end is judged in absolute coordinates (sc.base+end)
// so a windowed parse only grants the allowance at the true end of the
// image, not at the end of every window.
func (c *Checker) straddles(sc *scratch, res *shardResult, code []byte, saved, pos, end int) bool {
	if pos <= end || sc.base+end == sc.imgSize {
		return false
	}
	stopShard(res, code, end, BundleStraddle, fmt.Sprintf("instruction at %#x extends past the boundary", saved))
	return true
}

// directJump applies the policy checks shared by both engines to a
// direct-jump match occupying code[saved:pos]; it reports whether the
// shard parse must stop. Targets are classified in absolute image
// coordinates (the window-relative destination shifted by sc.base) so
// a windowed parse agrees with a whole-image parse; in-image targets
// are collected in pb window-relative, matching the bitmap the caller
// owns.
func (c *Checker) directJump(sc *scratch, res *shardResult, pb *parseBuf, code []byte, saved, pos int) (stop bool) {
	if c.AlignedCalls && code[saved] == 0xe8 && pos%c.params.bundle != 0 {
		stopShard(res, code, pos, MisalignedCall, "call leaves a misaligned return address")
		return true
	}
	t, ok := jumpTarget(code, saved, pos)
	if !ok {
		stopShard(res, code, saved, IllegalInstruction, "unrecognized direct jump form")
		return true
	}
	tAbs := t + int64(sc.base)
	if tAbs >= 0 && tAbs < int64(sc.imgSize) {
		pb.targets = append(pb.targets, int32(t))
	} else if !c.targetAllowed(uint32(tAbs)) {
		detail := fmt.Sprintf("direct jump targets %#x, outside the image", uint32(tAbs))
		if c.params.guard != 0 && uint32(tAbs) < c.params.guard {
			detail = fmt.Sprintf("direct jump targets %#x, inside the guard region below %#x", uint32(tAbs), c.params.guard)
		}
		stopShard(res, code, saved, TargetOutOfImage, detail)
		return true
	}
	return false
}

// targetAllowed reports whether an out-of-image direct-jump target is
// permitted: it must be a whitelisted entry point and must not fall in
// the policy's guard region.
func (c *Checker) targetAllowed(t uint32) bool {
	if c.params.guard != 0 && t < c.params.guard {
		return false
	}
	return c.Entries[t]
}

// jumpTarget decodes the direct jump occupying code[saved:pos] and
// computes its absolute destination (the analogue of Figure 5's
// extract). The destination may lie outside the image; the caller
// decides whether that is legal.
func jumpTarget(code []byte, saved, pos int) (int64, bool) {
	var rel int32
	switch b := code[saved]; {
	case b == 0xeb || b>>4 == 0x7: // JMP rel8 / Jcc rel8
		rel = int32(int8(code[pos-1]))
	case b == 0xe8 || b == 0xe9: // CALL/JMP rel32
		rel = int32(le32(code[pos-4 : pos]))
	case b == 0x0f: // Jcc rel32
		rel = int32(le32(code[pos-4 : pos]))
	default:
		return 0, false
	}
	return int64(pos) + int64(rel), true
}

// reconcile is stage 2: merge shard results, validate every direct-jump
// target against the merged boundary map, flag bundle boundaries the
// parse never reached, and select the deterministic lowest-offset
// violation ordering. A safe image takes the nil fast path: no slice is
// allocated. When st is non-nil the uncapped per-kind violation census
// is recorded before the report cap is applied, so Stats sees every
// violation even when the Report is truncated, and Stats.Instructions
// is the sum of the shards' own counts.
func (c *Checker) reconcile(ctx context.Context, code []byte, sc *scratch, st *Stats, fr *flight.Recorder, frun uint32) (all []Violation, total int) {
	// The image size comes from the scratch geometry, not len(code):
	// the streaming verifier reconciles with code == nil (the window
	// bytes are gone), in which case stage-2 violations simply carry no
	// Window excerpt (violation guards the slice access).
	size := sc.imgSize
	var insns int64
	for i := range sc.results {
		all = append(all, sc.results[i].violations...)
		insns += int64(sc.results[i].insns)
	}
	if st != nil {
		st.Instructions = insns
	}
	// Jump-target validation. In-shard targets were already resolved on
	// the stage-1 workers (parseShardAt) with their failures banked in bad;
	// here only the cross-shard leftovers are checked against the merged
	// boundary map. Several jumps may share a bad target; dedupe after
	// sorting so the report is one violation per offending offset.
	var jt0 time.Time
	if st != nil {
		jt0 = time.Now()
	}
	var fjt0 int64
	if fr != nil {
		fjt0 = fr.Now()
	}
	endJumps := telemetry.Region(ctx, "rocksalt.stage2.jumps")
	var badTargets []int
	for i := range sc.results {
		r := &sc.results[i]
		for _, t := range r.bad {
			badTargets = append(badTargets, int(t))
		}
		for _, t := range r.targets {
			if !sc.valid.Get(int(t)) {
				badTargets = append(badTargets, int(t))
			}
		}
	}
	if len(badTargets) > 0 {
		sort.Ints(badTargets)
		prev := -1
		for _, t := range badTargets {
			if t == prev {
				continue
			}
			prev = t
			all = append(all, violation(code, t, TargetNotBoundary, "direct jump targets a non-boundary offset"))
		}
	}
	endJumps()
	if st != nil {
		st.JumpsWall = time.Since(jt0)
	}
	if fr != nil {
		fr.Record(flight.Event{Kind: flight.SpanJumps, Run: frun,
			Start: fjt0, Dur: fr.Now() - fjt0, Bytes: int64(len(badTargets))})
	}
	// Every bundle boundary must be an instruction boundary. Shards the
	// lane parser proved regular already had every bundle boundary
	// in their range checked by pass 2 (laneExtract fails otherwise and
	// the reference loop re-parses the shard), so the scan skips them —
	// for a compliant image that removes the whole pass. The proof only
	// covers a full shard: a short final shard may end in a tail the
	// reference loop parsed, and a
	// cache-restored shard (no parse flags set) replays bits without the
	// pass-2 check, so both still scan. ShardBytes is a multiple of
	// every supported bundle size, so the per-shard scan visits exactly
	// the offsets the whole-image scan would.
	for s := range sc.results {
		r := &sc.results[s]
		start := s * ShardBytes
		end := start + ShardBytes
		if end > size {
			end = size
		}
		if r.lane && end-start == ShardBytes {
			continue
		}
		for i := start; i < end; i += c.params.bundle {
			if !sc.valid.Get(i) {
				all = append(all, violation(code, i, BundleStraddle, ""))
			}
		}
	}
	// Violations never collide on (Offset, Kind): each shard stops at
	// its first violation and the global scan emits at most one of each
	// kind per offset, so this order is total and the report is
	// deterministic. The stable sort is belt and braces.
	if len(all) > 1 {
		sort.SliceStable(all, func(i, j int) bool {
			if all[i].Offset != all[j].Offset {
				return all[i].Offset < all[j].Offset
			}
			return all[i].Kind < all[j].Kind
		})
	}
	total = len(all)
	if st != nil {
		for i := range all {
			st.ViolationsByKind[all[i].Kind]++
		}
		st.ContainedPanics = st.ViolationsByKind[InternalFault]
	}
	if len(all) > MaxReportViolations {
		all = all[:MaxReportViolations]
	}
	return all, total
}
