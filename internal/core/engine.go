package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
// All per-run mutable state (the packed boundary bitmap, the shard
// result array and the shards' stage-2 summary bytes) lives in a pooled
// scratch, and each in-flight shard parse borrows a pooled parseBuf, so
// steady-state Verify runs without allocating. A multi-worker call's
// plan is pooled too, and allocates only its worker starts.

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
	// (see cache.go): VerifyWith and VerifyContext first look up the
	// whole image's content key and return the cached Report on a hit;
	// on a miss they run the ordinary engine and store its Report. The
	// Analyze and VerifyDelta families ignore it: an edited image is
	// re-verified by VerifyDelta, which re-parses only what changed.
	// Requires fused tables (every current bundle has them); ignored
	// otherwise. A hit is recorded in Stats.CacheWholeHits.
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
	// boundary-bitmap words the shard owns, taken when its parse ends (a
	// stream harvest copies it, and a delta round retains it, with the
	// words). finish adds it to the scratch's running total, so the
	// census costs nothing in the shards a call did not parse.
	insns int32
}

func (r *shardResult) reset() {
	r.violations = r.violations[:0]
	r.targets = r.targets[:0]
	r.bad = r.bad[:0]
	r.lane, r.scalar, r.restart = false, false, false
	r.insns = 0
}

// summary is the shard's stage-2 summary byte for a shard of n bytes:
// 1 when reconcile has work there — a violation, a banked bad target, a
// cross-shard target, or a coverage scan, which every shard but a full
// one the lanes proved needs — else 0.
func (r *shardResult) summary(n int) byte {
	if len(r.violations)+len(r.bad)+len(r.targets) > 0 || !r.lane || n != ShardBytes {
		return 1
	}
	return 0
}

// scratch is the reusable per-run state: the packed boundary bitmap
// and the shard result array. A sync.Pool recycles it across runs so a
// warmed checker verifies without allocating.
type scratch struct {
	valid   bitset.Set
	results []shardResult
	// check holds each shard's summary byte, written wherever its result
	// is; flagged is the list of set ones reconcile scans them into.
	// insns is the sum of the results' instruction counts, kept as
	// results are parsed and erased.
	check   []byte
	flagged []int
	insns   int64
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
// keeping the capacity of its bitmap and result slices. Every shard
// starts flagged, so reconcile never skips one no parse summarized.
func (sc *scratch) reset(size, shards int) {
	sc.valid.Reset(size)
	sc.base, sc.imgSize, sc.insns = 0, size, 0
	if cap(sc.results) < shards {
		sc.results = make([]shardResult, shards)
	} else {
		sc.results = sc.results[:shards]
	}
	sc.check = slices.Grow(sc.check[:0], shards)[:shards]
	for i := range sc.results {
		sc.results[i].reset()
		sc.check[i] = 1
	}
}

// flaggedShards lists the shards whose summary byte is set, ascending,
// reading the bytes eight at a time. A summary byte is 0 or 1, so
// clearing a word's lowest set bit clears one shard.
func (sc *scratch) flaggedShards() []int {
	f, b, i := sc.flagged[:0], sc.check, 0
	for ; i+8 <= len(b); i += 8 {
		for w := binary.LittleEndian.Uint64(b[i:]); w != 0; w &= w - 1 {
			f = append(f, i+bits.TrailingZeros64(w)/8)
		}
	}
	for ; i < len(b); i++ {
		if b[i] != 0 {
			f = append(f, i)
		}
	}
	sc.flagged = f
	return f
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// parseBuf is the working memory of one in-flight shard parse: the
// lanes' pass-1 state buffer (one byte per shard byte), pass 2's list of
// the words holding a direct-jump end, and every in-image direct-jump
// target the parse found. Stage-1 workers parse
// shards of the same run concurrently, so each parse takes its own from
// parseBufPool, which holds the steady state at one per worker.
type parseBuf struct {
	states  [ShardBytes]byte
	jumps   [ShardBytes / 64]jumpWord
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
	rep := c.report(c.run(ctx, code, opts, sc, &st), len(code))
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
	out := c.run(context.Background(), code, VerifyOptions{Workers: 1}, sc, st)
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
// as the plan saw it after its last shard. The shards this call
// parsed (list, or every shard of sc when list is nil, as in parsePlan)
// join sc's instruction total, interrupted or not, so a delta state's
// total stays the sum of its results. An interrupted plan may have left
// shards unparsed, so none of it reaches stage 2 and the result reports
// Canceled or Deadline. A completed plan runs stage 2 over sc, and the
// parse-mode census counts the parsed shards, never those retained by a
// delta state. Either way finish records the wall time, publishes the
// Stats and closes the call's flight span.
func (c *Checker) finish(ctx context.Context, k *call, err error, code []byte, sc *scratch, list []int, st *Stats) runResult {
	out := runResult{shards: k.shards, workers: k.workers, ctxErr: err}
	census := err == nil && st != nil
	for i := 0; i < planLen(list, sc); i++ {
		r := &sc.results[pick(i, list)]
		sc.insns += int64(r.insns)
		if census {
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
	}
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

// run is Verify's stage-1 plan: every shard of the image. Shard workers poll ctx between shards and
// panics inside a shard parse are converted to InternalFault
// violations, so a hostile image (or a bug behind it) can stop the run
// early or fail it closed, but can neither hang the pool nor crash the
// process. st, when non-nil, receives the per-run Stats; everything
// written to it is stack- or scratch-resident, so collecting it never
// allocates.
func (c *Checker) run(ctx context.Context, code []byte, opts VerifyOptions, sc *scratch, st *Stats) runResult {
	k := c.begin(len(code), opts, st)
	k.workers = clampWorkers(opts.Workers, k.shards)
	endStage1 := telemetry.Region(ctx, "rocksalt.stage1.parse")
	stage1{c: c, code: code, sc: sc, engine: k.engine, fr: k.fr, frun: k.span.Run}.parsePlan(ctx, k.workers, nil)
	endStage1()
	if st != nil {
		st.Stage1Wall = time.Since(k.t0)
	}
	return c.finish(ctx, &k, ctx.Err(), code, sc, nil, st)
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
}

func (p *stage1) parse(s, w int) {
	p.c.parseShardAt(p.code, s, p.g0+s, p.sc, p.engine, p.fr, p.frun, w)
}

// parsePlan is Verify's and VerifyDelta's stage 1: it parses the plan's
// local shards — list, or every shard of p.sc when list is nil — on
// workers workers and returns once they are done. One worker parses
// in-line, with no goroutine or pool, so the lean path stays
// allocation-free; more run the plan on a pooled listPlan whose workers
// claim it shard by shard while the caller waits.
func (p stage1) parsePlan(ctx context.Context, workers int, list []int) {
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
	l := listPlanPool.Get().(*listPlan)
	l.stage1, l.list = p, list
	l.ctx, l.plan = ctx, l
	l.next.Store(0)
	l.publish(n, true)
	l.start(0, workers)
	l.wg.Wait()
	l.release()
	listPlanPool.Put(l)
}

// listPlan is parsePlan's plan on a pool: entry i is local shard
// pick(i, list).
type listPlan struct {
	pool
	stage1
	list []int
}

var listPlanPool = sync.Pool{New: func() any { return new(listPlan) }}

func (l *listPlan) run(i, w int) {
	if l.ctx.Err() == nil {
		l.parse(pick(i, l.list), w)
	}
}

// release drops every reference the plan holds into its call — the
// ctx, the bytes, the scratch, the recorder and the list — so a pooled
// plan never keeps a caller's image alive. Its workers must have
// returned.
func (l *listPlan) release() {
	l.ctx, l.plan, l.stage1, l.list = nil, nil, stage1{}, nil
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

// plan is the work of one call's stage-1 pool: run parses plan entry i
// on worker w, or, once the pool's ctx is done, only retires it.
type plan interface {
	run(i, w int)
}

// pool is one call's stage-1 workers, the one way Verify, VerifyDelta
// and VerifyReader parse on more than one: a plan embeds it and sets
// itself as its plan. The workers claim plan entries in ascending order
// from an atomic cursor, an entry i only once i < ready, the entries
// published so far. Verify and VerifyDelta publish their whole plan
// before the workers start; VerifyReader starts its pool once per call
// and publishes the image window by window as the bytes arrive, while
// its caller parses as worker 0 whenever it is not reading.
//
// Workers write disjoint [start,end) bit ranges of the shared bitmaps
// and disjoint result entries; ShardBytes is a multiple of 64, so the
// ranges are also word-disjoint and no synchronization is needed beyond
// the pool's. Each entry polls ctx.Err before it parses: one atomic
// load per 16 KiB shard parse, observed synchronously (a cancel that
// happened-before a shard starts is always seen). A caller that finds
// ctx done afterwards must treat the pass as interrupted: the entries
// retired after the cancel hold no artifacts.
type pool struct {
	ctx   context.Context
	plan  plan
	next  atomic.Int32 // the next entry to claim
	ready atomic.Int32 // the entries claimable, published and not stopped
	mu    sync.Mutex
	more  sync.Cond // workers wait here for ready to move, or for closed
	// closed, under mu, means no entry will be published any more:
	// workers return once they find nothing to claim.
	closed bool
	wg     sync.WaitGroup
}

// start runs workers w0 to w1-1 on goroutines of their own.
func (p *pool) start(w0, w1 int) {
	p.more.L = &p.mu
	p.wg.Add(w1 - w0)
	for w := w0; w < w1; w++ {
		go p.work(w)
	}
}

func (p *pool) work(w int) {
	defer p.wg.Done()
	for {
		if i, ok := p.claim(); ok {
			p.plan.run(i, w)
		} else if !p.sleep() {
			return
		}
	}
}

// claim takes the next published entry, if there is one.
func (p *pool) claim() (int, bool) {
	for {
		i := p.next.Load()
		if i >= p.ready.Load() {
			return 0, false
		}
		if p.next.CompareAndSwap(i, i+1) {
			return int(i), true
		}
	}
}

// sleep waits until an entry is claimable, and reports false instead
// once none ever will be.
func (p *pool) sleep() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.next.Load() >= p.ready.Load() && !p.closed {
		p.more.Wait()
	}
	return p.next.Load() < p.ready.Load()
}

// publish makes the plan's first n entries claimable and, with closed,
// declares that no more will come. publish(0, true) stops the pool
// where it stands: each worker returns once its in-flight entry is
// done.
func (p *pool) publish(n int, closed bool) {
	p.mu.Lock()
	p.ready.Store(int32(n))
	p.closed = closed
	p.mu.Unlock()
	p.more.Broadcast()
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
		// Counted and summarized after recovery, so a contained panic
		// still counts the boundaries the shard wrote before it, and
		// flags its violation.
		res.insns = int32(sc.valid.CountRange(start, end))
		sc.check[s] = res.summary(end - start)
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

// directJump applies the direct-jump checks (checkJump) to a match
// occupying code[saved:pos] for the Figure-5 loop; it reports whether
// the shard parse must stop, after recording the violation.
func (c *Checker) directJump(sc *scratch, res *shardResult, pb *parseBuf, code []byte, saved, pos int) (stop bool) {
	kind, tAbs, ok := c.checkJump(sc, pb, code, saved, pos)
	switch {
	case ok:
		return false
	case kind == MisalignedCall:
		stopShard(res, code, pos, kind, "call leaves a misaligned return address")
	case kind == IllegalInstruction:
		stopShard(res, code, saved, kind, "unrecognized direct jump form")
	case c.params.guard != 0 && uint32(tAbs) < c.params.guard:
		stopShard(res, code, saved, kind, fmt.Sprintf("direct jump targets %#x, inside the guard region below %#x", uint32(tAbs), c.params.guard))
	default:
		stopShard(res, code, saved, kind, fmt.Sprintf("direct jump targets %#x, outside the image", uint32(tAbs)))
	}
	return true
}

// checkJump applies the policy checks every engine makes on the direct
// jump occupying code[saved:pos]: under AlignedCalls a call must end on
// a bundle boundary, the jump must decode (jumpTarget), and a target
// outside the image must be allowed (targetAllowed). Targets are
// classified in absolute image coordinates (the window-relative
// destination shifted by sc.base) so a windowed parse agrees with a
// whole-image parse; an in-image target is collected in pb
// window-relative, matching the bitmap the caller owns. On a failed
// check it returns ok false, the kind of the violation and, for
// TargetOutOfImage, the absolute target.
func (c *Checker) checkJump(sc *scratch, pb *parseBuf, code []byte, saved, pos int) (kind ViolationKind, tAbs int64, ok bool) {
	if c.AlignedCalls && code[saved] == 0xe8 && pos%c.params.bundle != 0 {
		return MisalignedCall, 0, false
	}
	t, ok := jumpTarget(code, saved, pos)
	if !ok {
		return IllegalInstruction, 0, false
	}
	tAbs = t + int64(sc.base)
	if tAbs >= 0 && tAbs < int64(sc.imgSize) {
		pb.targets = append(pb.targets, int32(t))
	} else if !c.targetAllowed(uint32(tAbs)) {
		return TargetOutOfImage, tAbs, false
	}
	return 0, 0, true
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
// violation ordering. It visits only the shards whose summary byte is
// set (scratch.check): a full shard the lanes proved, with no violation
// and no target left to check, holds nothing for any of its passes. A
// safe image takes the nil fast path: no slice is allocated. Only
// violations the capped report can show are built: each
// bulk source (the deduped bad targets, the coverage scan) yields
// ascending distinct offsets of one kind, so its first
// MaxReportViolations hold every one of its violations that can rank in
// the report, and the rest are only counted. Every shard-local violation
// (at most one per shard) is kept. total and, when st is non-nil, the
// per-kind census count every violation at its source, so Stats sees
// them all even when the Report is truncated; Stats.Instructions is the
// scratch's running total.
func (c *Checker) reconcile(ctx context.Context, code []byte, sc *scratch, st *Stats, fr *flight.Recorder, frun uint32) (all []Violation, total int) {
	// The image size comes from the scratch geometry, not len(code):
	// the streaming verifier reconciles with code == nil (the window
	// bytes are gone), in which case stage-2 violations simply carry no
	// Window excerpt (violation guards the slice access).
	size := sc.imgSize
	flagged := sc.flaggedShards()
	for _, s := range flagged {
		all = append(all, sc.results[s].violations...)
	}
	total = len(all)
	if st != nil {
		st.Instructions = sc.insns
		for i := range all {
			st.ViolationsByKind[all[i].Kind]++
		}
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
	for _, s := range flagged {
		r := &sc.results[s]
		for _, t := range r.bad {
			badTargets = append(badTargets, int(t))
		}
		for _, t := range r.targets {
			if !sc.valid.Get(int(t)) {
				badTargets = append(badTargets, int(t))
			}
		}
	}
	found := len(badTargets)
	sort.Ints(badTargets)
	badTargets = slices.Compact(badTargets)
	for _, t := range badTargets[:min(len(badTargets), MaxReportViolations)] {
		all = append(all, violation(code, t, TargetNotBoundary, "direct jump targets a non-boundary offset"))
	}
	endJumps()
	if st != nil {
		st.JumpsWall = time.Since(jt0)
	}
	if fr != nil {
		fr.Record(flight.Event{Kind: flight.SpanJumps, Run: frun,
			Start: fjt0, Dur: fr.Now() - fjt0, Bytes: int64(found)})
	}
	// Every bundle boundary must be an instruction boundary. Shards the
	// lane parser proved regular already had every bundle boundary
	// in their range checked by pass 2 (laneExtract fails otherwise and
	// the reference loop re-parses the shard), so the scan skips them —
	// for a compliant image that removes the whole pass. The proof only
	// covers a full shard: a short final shard may end in a tail the
	// reference loop parsed, so it still scans. ShardBytes is a multiple
	// of every supported bundle size, so the per-shard scan visits
	// exactly the offsets the whole-image scan would.
	unreached := 0
	for _, s := range flagged {
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
				if unreached < MaxReportViolations {
					all = append(all, violation(code, i, BundleStraddle, ""))
				}
				unreached++
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
	total += len(badTargets) + unreached
	if st != nil {
		st.ViolationsByKind[TargetNotBoundary] += int64(len(badTargets))
		st.ViolationsByKind[BundleStraddle] += int64(unreached)
		st.ContainedPanics = st.ViolationsByKind[InternalFault]
	}
	if len(all) > MaxReportViolations {
		all = all[:MaxReportViolations]
	}
	return all, total
}
