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
// Stage 1 parses each shard, producing shard-local valid/pairJmp
// bitmaps, the shard's direct-jump targets, and any shard-local
// violation. By default the inner loop is one walk of the fused product
// automaton per offset (see fused.go); the seed's three-sequential-DFA
// loop survives as the reference engine, selectable per run, and the
// two are held byte-identical by FuzzFusedEquiv and the fault-injection
// harness. Stage 2 is a cheap sequential reconciliation: it validates
// every collected jump target against the merged boundary map, flags
// unreached bundle boundaries, and sorts all violations by (offset,
// kind) so the reported first violation is identical no matter how many
// workers ran stage 1 and which engine matched the bytes.
//
// All per-run mutable state (the two packed bitmaps and the shard
// result array) lives in a pooled scratch, so steady-state Verify runs
// without allocating.

// EngineKind selects the stage-1 matcher.
type EngineKind uint8

const (
	// EngineFused walks the fused product automaton once per offset
	// (the default).
	EngineFused EngineKind = iota
	// EngineReference runs the seed's Figure-5 loop: up to three
	// sequential DFA match attempts per offset. It exists as the
	// cross-check oracle for the fused engine.
	EngineReference
	// EngineFusedScalar forces the canonical scalar fused walk on every
	// shard — the diagnosing path the lane engine rewinds to — with the
	// optimistic lane phase disabled. It exists for cross-checks and as
	// the like-for-like baseline in benchmarks.
	EngineFusedScalar
	// EngineStrided forces the two-stride lane walk, building (and
	// semantically verifying) the pair tables if needed, regardless of
	// the size budget. EngineFused never auto-selects it (the pcls-
	// indexed walk measured slower than the single-stride lanes, see
	// swarAuto); it exists for cross-checks and benchmarks. A table
	// build or verification failure falls back to the single-stride
	// lanes.
	EngineStrided
	// EngineSWAR forces the SWAR multi-byte stepper (engine_swar.go):
	// the two-stride walk driven 8 input bytes per round through the
	// pair-class map, retiring 4-8 bytes per iteration with one
	// eventful-sentinel branch per chain half, and handing event-dense
	// shards back to the single-stride lanes (the density backoff).
	// EngineFused upgrades to it automatically when the tables are
	// present and fit StrideBudgetBytes; forcing it builds them on
	// demand. If the automaton cannot support it (too many states, or a
	// table failure) the run degrades to the single-stride lanes.
	EngineSWAR
)

// stepMode is the resolved inner stepper of the lane engine for one
// run: the single-stride flat walk, the forced two-stride pair walk, or
// the SWAR multi-byte stepper. It is derived once per run by
// resolveEngine and uniform across shards, so reports and stats stay
// deterministic.
type stepMode uint8

const (
	stepSingle stepMode = iota
	stepStride
	stepSWAR
)

// engineName is the human-readable engine census value recorded in
// Stats.Engine: the requested kind refined by the resolved stepper, so
// "what actually ran" is visible in -stats/-json output.
func engineName(e EngineKind, mode stepMode) string {
	switch {
	case e == EngineReference:
		return "reference"
	case e == EngineFusedScalar:
		return "fused-scalar"
	case mode == stepSWAR:
		return "swar"
	case mode == stepStride:
		return "strided"
	default:
		return "lanes"
	}
}

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
	// StrideBudgetBytes bounds the hot stride-table footprint
	// EngineFused will auto-select the SWAR stepper under (see
	// swarAuto): 0 means the default ceiling, negative disables the
	// upgrade and pins the run to the single-stride lanes. Ignored by
	// the other engines; EngineStrided/EngineSWAR always build their
	// tables.
	StrideBudgetBytes int
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
	// with stage 1; the failures land in bad.
	targets []int32
	// bad holds in-shard jump targets already proven to miss an
	// instruction boundary; reconcile merges them with the cross-shard
	// failures before sorting and deduping.
	bad []int32
	// lane/swar/scalar/restart classify how the shard was parsed (see
	// Stats.LaneBatches, SWARBatches, ScalarFallbacks, Restarts);
	// merged into the run's Stats at reconciliation. A shard sets at
	// most one.
	lane, swar, scalar, restart bool
	// backoff marks a shard whose SWAR parse hit the density backoff
	// and was handed to the single-stride lanes; the flight recorder
	// surfaces it as an EventSWARBackoff instant.
	backoff bool
	// prefetch absorbs the next-shard cache-line touches (see
	// touchLines); never read.
	prefetch byte
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
	r.lane, r.swar, r.scalar, r.restart = false, false, false, false
	r.backoff = false
	r.insns = 0
}

// scratch is the reusable per-run state: the packed boundary bitmaps
// and the shard result array. A sync.Pool recycles it across runs so a
// warmed checker verifies without allocating.
type scratch struct {
	valid, pairJmp bitset.Set
	results        []shardResult
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
	sc.valid.Reset(size)
	sc.pairJmp.Reset(size)
	sc.base, sc.imgSize = 0, size
	if cap(sc.results) < shards {
		sc.results = make([]shardResult, shards)
	} else {
		sc.results = sc.results[:shards]
	}
	for i := range sc.results {
		sc.results[i].reset()
	}
	return sc
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

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

// AnalyzeWith is VerifyWith plus the instruction-boundary bitmap and
// masked-pair jump positions (see Analyze for their meaning). The
// bitmaps are only meaningful when the report is Safe.
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
	// Analyze uses the chunk layer only: a whole-image Report hit would
	// skip filling the bitmaps this entry point exists to return.
	var cc *cacheCtx
	if opts.Cache != nil && c.fused != nil {
		_, chunks := c.cacheKeys(code)
		cc = &cacheCtx{cache: opts.Cache, keys: chunks}
	}
	rep = c.report(c.run(ctx, code, opts, sc, &st, cc), len(code))
	rep.Stats = st
	return sc.valid.Bools(), sc.pairJmp.Bools(), rep
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

// runResult is what run hands to the report builders: the reconciled,
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

// run executes stage 1 over the shard decomposition and stage 2 over
// the merged results, writing all per-run state into sc. Shard workers
// poll ctx between shards and panics inside a shard parse are converted
// to InternalFault violations, so a hostile image (or a bug behind it)
// can stop the run early or fail it closed, but can neither hang the
// pool nor crash the process.
//
// st, when non-nil, receives the per-run Stats: the size/shard facts
// up front, wall times at each stage boundary, and at the end the
// per-shard parse-mode flags and instruction counts merged during
// reconciliation. Everything written to st is stack- or scratch-
// resident, so collecting it never allocates.
func (c *Checker) run(ctx context.Context, code []byte, opts VerifyOptions, sc *scratch, st *Stats, cc *cacheCtx) runResult {
	size := len(code)
	shards := shardCount(size)
	workers := clampWorkers(opts.Workers, shards)
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
		st.BytesScanned = int64(size)
		st.Bundles = int64((size + c.params.bundle - 1) / c.params.bundle)
		st.Shards = int64(shards)
	}
	// The effective engine is resolved once per run and is uniform across
	// shards, so reports stay deterministic. (Assign-once locals: the
	// worker closure below captures them by value.)
	engine, mode := c.resolveEngine(opts)
	if st != nil {
		st.Engine = engineName(engine, mode)
	}
	// Flight recorder: one atomic pointer load decides whether this run
	// records spans — with no recorder installed that load is the whole
	// cost, which is what keeps Verify at 0 allocs/op recorder-off.
	// (frun/frt0 come from a helper so they are assign-once too — a
	// declare-then-assign local would be captured by reference and
	// heap-allocated.)
	fr := flight.Active()
	frun, frt0 := flightBegin(fr)
	// Chunk-cache probe: restore the parse artifacts of every resident
	// chunk and mark its shards skipped. Skipped shards set none of the
	// lane/scalar/restart flags, so Stats' parse-mode counts cover only
	// the shards actually parsed this run. (skip, like engine above, is
	// assign-once so the worker closure captures it by value.)
	var skip []bool
	if cc != nil && len(cc.keys) > 0 {
		cc.fr, cc.frun = fr, frun
		skip = c.probeChunks(cc, sc, st)
	}
	endStage1 := telemetry.Region(ctx, "rocksalt.stage1.parse")

	// Workers write disjoint [start,end) bit ranges of the shared
	// bitmaps; ShardBytes is a multiple of 64, so the ranges are also
	// word-disjoint and no synchronization is needed beyond the pool's.
	// Workers poll ctx.Err between shards: one atomic load per 16 KiB
	// shard parse, observed synchronously (a cancel that happened-before
	// a shard starts is always seen).
	if workers == 1 {
		for s := 0; s < shards; s++ {
			if skip != nil && skip[s] {
				continue
			}
			if ctx.Err() != nil {
				break
			}
			c.parseOne(code, s, sc, engine, mode, fr, frun, 0)
		}
	} else {
		var wg sync.WaitGroup
		jobs := make(chan int, shards)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for s := range jobs {
					if ctx.Err() != nil {
						// The channel is buffered and already closed, so
						// returning early cannot block the producer.
						return
					}
					c.parseOne(code, s, sc, engine, mode, fr, frun, w)
				}
			}(w)
		}
		for s := 0; s < shards; s++ {
			if skip != nil && skip[s] {
				continue
			}
			jobs <- s
		}
		close(jobs)
		wg.Wait()
	}
	endStage1()
	if st != nil {
		st.Stage1Wall = time.Since(t0)
	}
	if err := ctx.Err(); err != nil {
		if st != nil {
			st.Wall = time.Since(t0)
			publishStats(st, true, false)
		}
		if fr != nil {
			fr.Record(flight.Event{Kind: flight.SpanRun, Engine: runFlightEngine(engine, mode),
				Run: frun, Start: frt0, Dur: fr.Now() - frt0, Bytes: int64(size)})
		}
		return runResult{shards: shards, workers: workers, ctxErr: err}
	}
	if cc != nil && len(cc.keys) > 0 {
		// The run completed, so every freshly-parsed clean chunk's
		// artifacts are final; bank them for the next run.
		c.storeChunks(cc, sc, skip)
	}
	var t1 time.Time
	if st != nil {
		t1 = time.Now()
	}
	var frt1 int64
	if fr != nil {
		frt1 = fr.Now()
	}
	endReconcile := telemetry.Region(ctx, "rocksalt.stage2.reconcile")
	violations, total := c.reconcile(ctx, code, sc, st, fr, frun)
	endReconcile()
	if fr != nil {
		fr.Record(flight.Event{Kind: flight.SpanReconcile, Run: frun,
			Start: frt1, Dur: fr.Now() - frt1, Bytes: int64(total)})
	}
	if st != nil {
		for i := range sc.results {
			r := &sc.results[i]
			// SWAR-proven shards are lane batches too (the same 4-lane
			// two-pass parser, a different inner stepper); SWARBatches is
			// the sub-census.
			if r.lane || r.swar {
				st.LaneBatches++
			}
			if r.swar {
				st.SWARBatches++
			}
			if r.scalar {
				st.ScalarFallbacks++
			}
			if r.restart {
				st.Restarts++
			}
		}
		st.Stage2Wall = time.Since(t1)
		st.Wall = time.Since(t0)
		publishStats(st, false, total > 0)
	}
	if fr != nil {
		fr.Record(flight.Event{Kind: flight.SpanRun, Engine: runFlightEngine(engine, mode),
			Run: frun, Start: frt0, Dur: fr.Now() - frt0, Bytes: int64(size)})
	}
	return runResult{violations: violations, total: total, shards: shards, workers: workers}
}

// runFlightEngine maps the run's resolved engine to the flight
// recorder's enum — the run-level counterpart of engineName.
// flightBegin opens a flight-recorder run, returning its run id and
// start timestamp (zeros with no recorder installed).
func flightBegin(fr *flight.Recorder) (frun uint32, frt0 int64) {
	if fr == nil {
		return 0, 0
	}
	return fr.BeginRun(), fr.Now()
}

func runFlightEngine(e EngineKind, mode stepMode) flight.Engine {
	switch {
	case e == EngineReference:
		return flight.EngineReference
	case e == EngineFusedScalar:
		return flight.EngineScalar
	case mode == stepSWAR:
		return flight.EngineSWAR
	case mode == stepStride:
		return flight.EngineStrided
	default:
		return flight.EngineLanes
	}
}

// shardFlightEngine classifies how one shard was actually parsed, from
// its result flags — finer-grained than the run-level engine because a
// shard can individually back off or restart scalar.
func shardFlightEngine(e EngineKind, mode stepMode, res *shardResult) flight.Engine {
	switch {
	case e == EngineReference:
		return flight.EngineReference
	case res.swar:
		return flight.EngineSWAR
	case res.lane && mode == stepStride:
		return flight.EngineStrided
	case res.lane:
		return flight.EngineLanes
	default:
		return flight.EngineScalar
	}
}

// resolveEngine maps the requested engine to the stepper a run will
// actually use. The forced kinds (EngineStrided, EngineSWAR) build and
// semantically verify their tables on first use and degrade to the
// single-stride lanes if they cannot be readied. EngineFused — the
// default — auto-upgrades to the SWAR stepper when the tables are
// already present (shipped in the bundle or built by an earlier forced
// run) and their hot footprint fits the budget; it never auto-selects
// the plain two-stride walk, which measures slower than the
// single-stride lanes (the regression TestAutoEngineSelection pins
// this: auto must never pick a slower stepper).
func (c *Checker) resolveEngine(opts VerifyOptions) (EngineKind, stepMode) {
	engine := opts.Engine
	if c.fused == nil {
		return engine, stepSingle
	}
	switch engine {
	case EngineStrided:
		if c.fused.ensureStride() == nil {
			return engine, stepStride
		}
		return EngineFused, stepSingle
	case EngineSWAR:
		if c.fused.ensureStride() == nil && c.fused.swarReady() {
			return engine, stepSWAR
		}
		return EngineFused, stepSingle
	case EngineFused:
		if c.fused.swarAuto(opts.StrideBudgetBytes) && c.fused.ensureStride() == nil && c.fused.swarReady() {
			return engine, stepSWAR
		}
	}
	return engine, stepSingle
}

// parseOne runs stage 1 on shard s, containing panics as InternalFault
// violations so the worker (and the pool behind it) survives. fr, when
// non-nil, receives a SpanShard record (and an EventSWARBackoff instant
// when the density backoff fired) tagged with the worker index w.
// Ordinary runs parse the whole image in place; the streaming verifier
// parses a window, where s is window-relative and the shard's true
// index differs — parseShardAt takes both so flight records and panic
// details name the global shard while offsets stay window-relative
// (the harvest translates them).
func (c *Checker) parseOne(code []byte, s int, sc *scratch, engine EngineKind, mode stepMode, fr *flight.Recorder, frun uint32, w int) {
	c.parseShardAt(code, s, s, sc, engine, mode, fr, frun, w)
}

func (c *Checker) parseShardAt(code []byte, s, gs int, sc *scratch, engine EngineKind, mode stepMode, fr *flight.Recorder, frun uint32, w int) {
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
	// Software prefetch: stream one byte per cache line of the *next*
	// shard before the dependent-load walk starts on this one. The
	// streaming pass has high memory-level parallelism (the hardware
	// prefetcher runs ahead of it), so by the time the walk's
	// latency-bound, table-interleaved code loads reach those lines they
	// hit cache. Read-only and redundant across workers, so it needs no
	// coordination; it is skipped for the last shard.
	if end < len(code) {
		res.prefetch = touchLines(code, end, end+ShardBytes)
	}
	switch {
	case engine == EngineReference || c.fused == nil:
		res.scalar = true
		c.parseShardRef(code, start, end, sc, res)
	case engine == EngineFusedScalar:
		res.scalar = true
		c.parseShardFusedScalar(code, start, end, sc, res)
	default:
		c.parseShardFused(code, start, end, sc, res, mode)
	}
	// Overlap stage 2 with stage 1: the shard's bitmap words are final
	// the moment its parse returns (shards own disjoint word ranges), so
	// its in-shard jump targets can be resolved here, on the parallel
	// workers, instead of on reconcile's serial path. Only cross-shard
	// targets — typically a small minority — remain for stage 2; proven
	// failures are banked in res.bad and replayed by reconcile, so the
	// report is unchanged.
	kept := res.targets[:0]
	for _, t := range res.targets {
		if int(t) >= start && int(t) < end {
			if !sc.valid.Get(int(t)) {
				res.bad = append(res.bad, t)
			}
			continue
		}
		kept = append(kept, t)
	}
	res.targets = kept
	if fr != nil {
		now := fr.Now()
		fr.Record(flight.Event{Kind: flight.SpanShard, Engine: shardFlightEngine(engine, mode, res),
			Worker: uint16(w), Shard: uint32(gs), Run: frun, Start: ft0, Dur: now - ft0, Bytes: int64(end - start)})
		if res.backoff {
			fr.Record(flight.Event{Kind: flight.EventSWARBackoff, Engine: flight.EngineSWAR,
				Worker: uint16(w), Shard: uint32(gs), Run: frun, Start: now})
		}
	}
}

// touchLines reads one byte per 64-byte cache line of code[start:end)
// (clamped to the image) and folds them into a throwaway value the
// caller stores, which keeps the loop from looking dead. This is the
// portable software-prefetch idiom: a pure streaming read that drags
// the lines into cache ahead of their latency-bound consumer.
func touchLines(code []byte, start, end int) byte {
	if end > len(code) {
		end = len(code)
	}
	var x byte
	for i := start; i < end; i += 64 {
		x ^= code[i]
	}
	return x
}

// stopShard appends the shard-local violation that ends a parse.
func stopShard(res *shardResult, code []byte, off int, kind ViolationKind, detail string) {
	res.violations = append(res.violations, violation(code, off, kind, detail))
}

// parseShardFused is stage 1 around the fused product automaton. The
// whole-bundle prefix of the shard runs through the four-lane
// interleaved parser — with the single-stride, two-stride or SWAR
// stepper per the resolved mode — which assumes the image is
// compliant; if it finds anything irregular its partial writes are
// erased and the canonical scalar loop below re-parses the shard from
// the start, so every violating shard is diagnosed by exactly the same
// code path regardless of the optimistic phase. A trailing partial
// bundle (only the image's last shard can have one) is parsed scalar
// as well, continuing where the lanes proved the prefix regular.
//
// The lane engines support bundle sizes 16, 32 and 64: the pass-2
// boundary extraction masks bundle bits per 64-bit bitmap word
// (laneExtract), so a larger bundle has no in-word boundary to check
// and such checkers take the canonical scalar walk — every
// policy-relevant decision lives there and in the shared helpers, so
// the verdict is engine-invariant either way (FuzzPolicyEquiv holds
// the engines identical per policy).
func (c *Checker) parseShardFused(code []byte, start, end int, sc *scratch, res *shardResult, mode stepMode) {
	bundle := c.params.bundle
	if bundle <= 64 {
		full := start + (end-start)/bundle*bundle
		if full-start >= laneCount*bundle {
			ok := false
			if mode == stepSWAR {
				var dense bool
				ok, dense = c.parseShardSWAR(code, start, full, sc, res)
				if ok {
					res.swar = true
				} else if dense {
					// Density backoff: the multi-byte rounds were losing on
					// this shard. Erase the probe's writes and re-parse with
					// the four-lane single-stride walk, which is faster on
					// event-dense code (see the backoff comment in
					// engine_swar.go); a further failure there still falls
					// to the canonical scalar re-parse below.
					sc.valid.ClearRange(start, end)
					sc.pairJmp.ClearRange(start, end)
					res.reset()
					res.backoff = true
					if ok = c.parseShardLanes(code, start, full, sc, res, false); ok {
						res.lane = true
					}
				}
			} else if ok = c.parseShardLanes(code, start, full, sc, res, mode == stepStride); ok {
				res.lane = true
			}
			if ok {
				if full < end {
					c.parseShardFusedScalar(code, full, end, sc, res)
				}
				return
			}
			sc.valid.ClearRange(start, end)
			sc.pairJmp.ClearRange(start, end)
			backedOff := res.backoff
			res.reset()
			res.backoff = backedOff // the SWAR backoff happened regardless of the later restart
			res.restart = true
			c.parseShardFusedScalar(code, start, end, sc, res)
			return
		}
	}
	res.scalar = true
	c.parseShardFusedScalar(code, start, end, sc, res)
}

// parseShardFusedScalar is the sequential fused walk: one table walk per
// offset yields every component's earliest accept length, and the seed's
// priority — masked, then noCF, then direct — picks the match. The shard
// start is a bundle boundary, which the policy requires to be an
// instruction boundary, so on any compliant image the shard-local parse
// reproduces exactly the boundaries the sequential parse would find. A
// matched unit extending past the shard end means that bundle boundary
// sits inside an instruction — itself a violation — so the shard stops
// there instead of racing into its neighbour's range.
func (c *Checker) parseShardFusedScalar(code []byte, start, end int, sc *scratch, res *shardResult) {
	f := c.fused
	table, tags := f.table, f.tags
	nocf1 := &f.nocf1
	fstart, quiet := uint16(f.start), uint16(f.quiet)
	mlen, bundle := c.params.maskLen, c.params.bundle
	size := len(code)
	pos := start

	// Boundary bits are buffered in a register-resident word: the shard
	// owns whole words of the bitmap (ShardBytes is a multiple of 64) and
	// pos only moves forward, so each word is flushed exactly once — at
	// the word crossing or at the single exit below — replacing one
	// read-modify-write of shared memory per instruction with an OR.
	wvalid := sc.valid.Words()
	curw := uint(pos) / 64
	var acc uint64

loop:
	for pos < end {
		if w := uint(pos) / 64; w != curw {
			wvalid[curw] |= acc
			curw, acc = w, 0
		}
		acc |= 1 << (uint(pos) % 64)
		// Single-byte fast path: the byte alone is a complete noCF
		// instruction and resolves every component (NOP padding is the
		// common case), so the walk and its bookkeeping are skipped.
		if nocf1[code[pos]] {
			pos++
			continue
		}
		saved := pos

		// The fused walk, inlined (see fusedDFA.scan for the stop-rule
		// argument): quiet states cost one table load and one compare;
		// the walk ends as soon as the priority decision is determined.
		state := fstart
		lm, ln, ld := 0, 0, 0
		off := saved
		for off < size {
			state = table[state][code[off]]
			off++
			if state < quiet {
				continue
			}
			tag := tags[state]
			n := off - saved
			if tag&tagAccMasked != 0 {
				lm = n
				break
			}
			if tag&tagAccNoCF != 0 && ln == 0 {
				ln = n
			}
			if tag&tagAccDirect != 0 && ld == 0 {
				ld = n
			}
			if tag&tagLiveMasked == 0 &&
				(ln != 0 || tag&tagLiveNoCF == 0 && (ld != 0 || tag&tagLiveDirect == 0)) {
				break
			}
		}

		// The pos > end guards keep the (never-inlined) straddle helper
		// off the hot path; straddling is always a violation en route.
		switch {
		case lm != 0:
			pos = saved + lm
			if pos > end && c.straddles(sc, res, code, saved, pos, end) {
				break loop
			}
			sc.pairJmp.Set(saved + mlen)
			// The call form of the pair is FF /2 (0xD0|r in the modrm).
			if c.AlignedCalls && code[pos-1]>>3&7 == 2 && pos%bundle != 0 {
				stopShard(res, code, pos, MisalignedCall, "masked call leaves a misaligned return address")
				break loop
			}
		case ln != 0:
			pos = saved + ln
			if pos > end && c.straddles(sc, res, code, saved, pos, end) {
				break loop
			}
		case ld != 0:
			pos = saved + ld
			if pos > end && c.straddles(sc, res, code, saved, pos, end) {
				break loop
			}
			if c.directJump(sc, res, code, saved, pos) {
				break loop
			}
		default:
			stopShard(res, code, saved, IllegalInstruction, "")
			break loop
		}
	}
	wvalid[curw] |= acc
}

// parseShardRef is the reference stage 1: the seed's Figure 5 loop, up
// to three sequential DFA match attempts per offset. It is the oracle
// the fused engine is held byte-identical to.
func (c *Checker) parseShardRef(code []byte, start, end int, sc *scratch, res *shardResult) {
	masked, noCF, direct := c.masked, c.noCF, c.direct
	pos := start
	for pos < end {
		sc.valid.Set(pos)
		saved := pos
		if match(masked, code, &pos) {
			if c.straddles(sc, res, code, saved, pos, end) {
				return
			}
			sc.pairJmp.Set(saved + c.params.maskLen)
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
			if c.directJump(sc, res, code, saved, pos) {
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
// are banked window-relative, matching the bitmap the caller owns.
func (c *Checker) directJump(sc *scratch, res *shardResult, code []byte, saved, pos int) (stop bool) {
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
		res.targets = append(res.targets, int32(t))
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
	// the stage-1 workers (parseOne) with their failures banked in bad;
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
	// lane/SWAR parser proved regular already had every bundle boundary
	// in their range checked by pass 2 (laneExtract fails otherwise and
	// the shard restarts scalar), so the scan skips them — for a
	// compliant image that removes the whole pass. The proof only covers
	// a full shard: a short final shard has a scalar-parsed tail, and a
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
		if (r.lane || r.swar) && end-start == ShardBytes {
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
