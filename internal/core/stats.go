package core

import (
	"fmt"
	"strings"
	"time"

	"rocksalt/internal/flight"
	"rocksalt/internal/telemetry"
)

// This file is the engine's measurement channel. Two layers, kept
// deliberately separate:
//
//   - Stats is the per-run record attached to every Report: counters
//     describing exactly what the staged engine did on this image.
//     They are populated from per-shard scratch flags merged at
//     reconciliation, so they are byte-identical for any worker count
//     and for both stage-1 engines where the quantity is
//     engine-invariant (the determinism tests pin this). Collection is
//     always on for the Report-producing entry points; the lean
//     boolean path (Verify) skips it entirely unless global telemetry
//     is enabled, which keeps the hot path's disabled cost at one
//     branch.
//
//   - The process-wide metrics below aggregate runs for scraping
//     (Prometheus text format, expvar). They are registered once at
//     init and bumped only after a run completes, from the already-
//     merged Stats — a dozen atomic adds per run, nothing per
//     instruction — so the enabled overhead stays in the noise.

// Stats is the per-run engine record. All fields except the wall times
// are deterministic: for a given image, engine, and checker they do
// not depend on the worker count or scheduling.
type Stats struct {
	// BytesScanned is the image size handed to the run.
	BytesScanned int64 `json:"bytes_scanned"`
	// Bundles is the number of 32-byte bundles (the last may be
	// partial) the image decomposes into.
	Bundles int64 `json:"bundles"`
	// Instructions is the number of instruction boundaries the parse
	// established — the population count of the merged valid bitmap.
	// For a safe image this is exactly the instruction count; for a
	// rejected one it counts the boundaries reached before each shard
	// stopped.
	Instructions int64 `json:"instructions"`
	// Shards is the stage-1 shard count.
	Shards int64 `json:"shards"`
	// Engine names the stage-1 stepper the run used ("lanes",
	// "reference", or "cache" for a cache serve) — the
	// per-run face of the engine census. It describes how the bytes
	// were matched, not what was concluded, so EngineInvariant blanks
	// it alongside the parse-mode counters.
	Engine string `json:"engine,omitempty"`
	// LaneBatches counts shards whose whole-bundle region the lane
	// parser proved regular (the fast path).
	LaneBatches int64 `json:"lane_batches"`
	// SWARBatches is always zero: the SWAR stepper it counted is gone.
	// The field stays only because the benchmark module (bench/) reads
	// it; ROADMAP.md's benchmark-notes item removes it with the
	// benchmark's next change.
	SWARBatches int64 `json:"swar_batches"`
	// ScalarFallbacks counts shards the Figure-5 loop parsed without a
	// lane attempt: a shard with no whole bundle (only an image's last
	// shard can be one), every shard of a checker whose bundle is over
	// 64 bytes, and every shard under the reference engine.
	ScalarFallbacks int64 `json:"scalar_fallbacks"`
	// Restarts counts shards where the lane parse found an
	// irregularity, erased its optimistic writes, and the Figure-5 loop
	// re-parsed the shard from the start.
	Restarts int64 `json:"restarts"`
	// ContainedPanics counts stage-1 shard panics converted to
	// InternalFault violations (always 0 unless something is wrong).
	ContainedPanics int64 `json:"contained_panics"`
	// CacheWholeHits is 1 when the run was answered entirely from the
	// verdict cache (no byte was scanned), else 0. Cache fields are
	// populated only when VerifyOptions.Cache is set; they describe
	// cache state, not the image, so they sit outside the
	// engine-invariance contract (they are zero in uncached runs, which
	// is what the equivalence tests compare).
	CacheWholeHits int64 `json:"cache_whole_hits"`
	// CacheChunkHits / CacheChunkMisses count the cacheable 64KiB
	// chunks restored from, respectively missing from, the chunk cache.
	CacheChunkHits   int64 `json:"cache_chunk_hits"`
	CacheChunkMisses int64 `json:"cache_chunk_misses"`
	// CacheBytesSaved is how many image bytes stage 1 did not have to
	// parse thanks to cache hits (the whole image on a whole-image hit).
	CacheBytesSaved int64 `json:"cache_bytes_saved"`
	// DeltaChunksReparsed / DeltaChunksReplayed count, for a VerifyDelta
	// round, the 64KiB chunks re-parsed (dirty under the edit set)
	// versus replayed from the retained delta state; they sum to the
	// image's chunk count, the final (possibly partial) chunk included.
	// DeltaBytesReparsed is the total bytes stage 1 actually re-parsed
	// in the round. Like the cache fields, they describe delta state
	// rather than the image, so they sit outside the engine-invariance
	// contract and are zero for ordinary full runs.
	DeltaChunksReparsed int64 `json:"delta_chunks_reparsed"`
	DeltaChunksReplayed int64 `json:"delta_chunks_replayed"`
	DeltaBytesReparsed  int64 `json:"delta_bytes_reparsed"`
	// ViolationsByKind is the uncapped per-kind violation census —
	// unlike Report.Violations it is not truncated at
	// MaxReportViolations, so its sum equals Report.Total.
	ViolationsByKind [NumViolationKinds]int64 `json:"violations_by_kind"`
	// Stage1Wall, Stage2Wall, JumpsWall and Wall are wall-clock timings
	// for the shard parse, reconciliation, the jump-validation section
	// inside reconciliation, and the whole run. They are the one
	// nondeterministic part of Stats; Counters() zeroes them for
	// comparisons.
	Stage1Wall time.Duration `json:"stage1_wall_ns"`
	Stage2Wall time.Duration `json:"stage2_wall_ns"`
	JumpsWall  time.Duration `json:"jumps_wall_ns"`
	Wall       time.Duration `json:"wall_ns"`
}

// Counters returns a copy with the wall-clock fields zeroed: the
// deterministic subset, comparable with == across worker counts.
func (s Stats) Counters() Stats {
	s.Stage1Wall, s.Stage2Wall, s.JumpsWall, s.Wall = 0, 0, 0, 0
	return s
}

// EngineInvariant returns the subset that must also be identical
// between the fused and reference stage-1 engines: everything except
// the lane/scalar/restart split, which describes how the fused engine
// matched the bytes rather than what it concluded.
func (s Stats) EngineInvariant() Stats {
	s = s.Counters()
	s.LaneBatches, s.ScalarFallbacks, s.Restarts = 0, 0, 0
	s.Engine = ""
	return s
}

// String renders the stats as a compact human-readable block (the
// rocksalt -stats output).
func (s Stats) String() string {
	var b strings.Builder
	if s.Engine != "" {
		fmt.Fprintf(&b, "engine %s, ", s.Engine)
	}
	fmt.Fprintf(&b, "bytes %d, bundles %d, instructions %d, shards %d\n",
		s.BytesScanned, s.Bundles, s.Instructions, s.Shards)
	fmt.Fprintf(&b, "lane batches %d, scalar fallbacks %d, restarts %d, contained panics %d\n",
		s.LaneBatches, s.ScalarFallbacks, s.Restarts, s.ContainedPanics)
	if s.CacheWholeHits != 0 || s.CacheChunkHits != 0 || s.CacheChunkMisses != 0 {
		fmt.Fprintf(&b, "cache: whole hits %d, chunk hits %d, chunk misses %d, bytes saved %d (hit ratio %.0f%%)\n",
			s.CacheWholeHits, s.CacheChunkHits, s.CacheChunkMisses, s.CacheBytesSaved, 100*s.ChunkHitRatio())
	}
	if s.DeltaChunksReparsed != 0 || s.DeltaChunksReplayed != 0 {
		fmt.Fprintf(&b, "delta: chunks reparsed %d, replayed %d, bytes reparsed %d\n",
			s.DeltaChunksReparsed, s.DeltaChunksReplayed, s.DeltaBytesReparsed)
	}
	total := int64(0)
	for k, n := range s.ViolationsByKind {
		if n > 0 {
			fmt.Fprintf(&b, "violations[%s] %d\n", ViolationKind(k), n)
			total += n
		}
	}
	fmt.Fprintf(&b, "stage1 %v, stage2 %v (jumps %v), total %v", s.Stage1Wall, s.Stage2Wall, s.JumpsWall, s.Wall)
	return b.String()
}

// ChunkHitRatio is the fraction of chunk-grade reuse opportunities
// that were served from prior state: cache hits over hits+misses for a
// cached run, replayed over replayed+reparsed chunks for a delta round.
// It returns 0 when the run used neither layer.
func (s Stats) ChunkHitRatio() float64 {
	hits := s.CacheChunkHits + s.DeltaChunksReplayed
	total := hits + s.CacheChunkMisses + s.DeltaChunksReparsed
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// kindSlugs are the Prometheus label values for ViolationKind, index-
// aligned with kindNames.
var kindSlugs = [NumViolationKinds]string{
	"illegal_instruction",
	"target_out_of_image",
	"misaligned_call",
	"target_not_boundary",
	"bundle_straddle",
	"internal_fault",
}

// coreMetrics is the process-wide aggregate, registered once against
// the default telemetry registry.
var coreMetrics struct {
	runs            *telemetry.Counter
	interrupted     *telemetry.Counter
	rejected        *telemetry.Counter
	bytes           *telemetry.Counter
	instructions    *telemetry.Counter
	bundles         *telemetry.Counter
	shards          *telemetry.Counter
	laneBatches     *telemetry.Counter
	scalarFallbacks *telemetry.Counter
	restarts        *telemetry.Counter
	containedPanics *telemetry.Counter
	cacheWholeHits  *telemetry.Counter
	cacheChunkHits  *telemetry.Counter
	cacheChunkMiss  *telemetry.Counter
	cacheBytesSaved *telemetry.Counter
	cacheServes     *telemetry.Counter
	deltaRounds     *telemetry.Counter
	deltaReparsed   *telemetry.Counter
	deltaReplayed   *telemetry.Counter
	deltaBytes      *telemetry.Counter
	byKind          [NumViolationKinds]*telemetry.Counter
	runNanos        *telemetry.Histogram
	// stageNanos are per-stage latency histograms, one labeled series
	// per pipeline stage; engineNanos are per-run latency histograms
	// keyed by the resolved engine census name (including "cache" for
	// whole-image serves).
	stage1Nanos    *telemetry.Histogram
	reconcileNanos *telemetry.Histogram
	jumpsNanos     *telemetry.Histogram
	engineNanos    map[string]*telemetry.Histogram
}

func init() {
	r := telemetry.Default()
	coreMetrics.runs = r.NewCounter("rocksalt_verify_runs_total", "verification runs completed (any verdict)")
	coreMetrics.interrupted = r.NewCounter("rocksalt_verify_interrupted_total", "runs stopped by context cancellation or deadline")
	coreMetrics.rejected = r.NewCounter("rocksalt_verify_rejected_total", "completed runs that rejected the image")
	coreMetrics.bytes = r.NewCounter("rocksalt_verify_bytes_total", "image bytes scanned by stage 1")
	coreMetrics.instructions = r.NewCounter("rocksalt_verify_instructions_total", "instruction boundaries established")
	coreMetrics.bundles = r.NewCounter("rocksalt_verify_bundles_total", "32-byte bundles processed")
	coreMetrics.shards = r.NewCounter("rocksalt_verify_shards_total", "stage-1 shards parsed")
	coreMetrics.laneBatches = r.NewCounter("rocksalt_verify_lane_batches_total", "shards proved regular by the 4-lane parser")
	coreMetrics.scalarFallbacks = r.NewCounter("rocksalt_verify_scalar_fallbacks_total", "shards the reference loop parsed without a lane attempt")
	coreMetrics.restarts = r.NewCounter("rocksalt_verify_restarts_total", "lane parses erased and re-parsed by the reference loop")
	coreMetrics.containedPanics = r.NewCounter("rocksalt_verify_contained_panics_total", "stage-1 shard panics contained as InternalFault")
	coreMetrics.cacheWholeHits = r.NewCounter("rocksalt_cache_whole_hits_total", "runs answered entirely from the verdict cache")
	coreMetrics.cacheChunkHits = r.NewCounter("rocksalt_cache_chunk_hits_total", "64KiB chunks restored from the verdict cache")
	coreMetrics.cacheChunkMiss = r.NewCounter("rocksalt_cache_chunk_misses_total", "cacheable chunks not found in the verdict cache")
	coreMetrics.cacheBytesSaved = r.NewCounter("rocksalt_cache_bytes_saved_total", "image bytes not re-parsed thanks to cache hits")
	coreMetrics.cacheServes = r.NewCounter("rocksalt_cache_serves_total", "verifies answered entirely from the whole-image verdict cache")
	coreMetrics.deltaRounds = r.NewCounter("rocksalt_delta_rounds_total", "VerifyDelta reconciliation rounds completed")
	coreMetrics.deltaReparsed = r.NewCounter("rocksalt_delta_chunks_reparsed_total", "chunks re-parsed by VerifyDelta rounds")
	coreMetrics.deltaReplayed = r.NewCounter("rocksalt_delta_chunks_replayed_total", "chunks replayed from retained delta state")
	coreMetrics.deltaBytes = r.NewCounter("rocksalt_delta_bytes_reparsed_total", "image bytes re-parsed by VerifyDelta rounds")
	for k := range coreMetrics.byKind {
		coreMetrics.byKind[k] = r.NewLabeledCounter("rocksalt_verify_violations_total",
			"policy violations found, by kind", "kind", kindSlugs[k])
	}
	coreMetrics.runNanos = r.NewHistogram("rocksalt_verify_duration_ns", "wall time per verification run")
	stageHelp := "wall time per verification run, by pipeline stage"
	coreMetrics.stage1Nanos = r.NewLabeledHistogram("rocksalt_stage_duration_ns", stageHelp, "stage", "stage1")
	coreMetrics.reconcileNanos = r.NewLabeledHistogram("rocksalt_stage_duration_ns", stageHelp, "stage", "reconcile")
	coreMetrics.jumpsNanos = r.NewLabeledHistogram("rocksalt_stage_duration_ns", stageHelp, "stage", "jumps")
	coreMetrics.engineNanos = map[string]*telemetry.Histogram{}
	engines := []flight.Engine{flight.EngineLanes, flight.EngineReference, flight.EngineCache}
	for _, e := range engines {
		coreMetrics.engineNanos[e.String()] = r.NewLabeledHistogram("rocksalt_engine_duration_ns",
			"wall time per verification run, by resolved engine", "engine", e.String())
	}
}

// publishStats folds one completed (or interrupted) run into the
// process-wide metrics. Called once per run, after reconciliation;
// every add is gated on the telemetry enable bit, so a disabled
// process pays one branch here and nothing else.
func publishStats(st *Stats, interrupted, rejected bool) {
	if !telemetry.Enabled() {
		return
	}
	m := &coreMetrics
	m.runs.Add(1)
	if interrupted {
		m.interrupted.Add(1)
	}
	if rejected {
		m.rejected.Add(1)
	}
	m.bytes.Add(st.BytesScanned)
	m.instructions.Add(st.Instructions)
	m.bundles.Add(st.Bundles)
	m.shards.Add(st.Shards)
	m.laneBatches.Add(st.LaneBatches)
	m.scalarFallbacks.Add(st.ScalarFallbacks)
	m.restarts.Add(st.Restarts)
	for k, n := range st.ViolationsByKind {
		if n > 0 {
			m.byKind[k].Add(n)
		}
	}
	m.runNanos.Observe(int64(st.Wall))
	m.stage1Nanos.Observe(int64(st.Stage1Wall))
	m.reconcileNanos.Observe(int64(st.Stage2Wall))
	m.jumpsNanos.Observe(int64(st.JumpsWall))
	if h := m.engineNanos[st.Engine]; h != nil {
		h.Observe(int64(st.Wall))
	}
}

// publishDeltaStats folds one VerifyDelta round's reuse counters into
// the process-wide metrics.
func publishDeltaStats(st *Stats) {
	if !telemetry.Enabled() {
		return
	}
	m := &coreMetrics
	m.deltaRounds.Add(1)
	m.deltaReparsed.Add(st.DeltaChunksReparsed)
	m.deltaReplayed.Add(st.DeltaChunksReplayed)
	m.deltaBytes.Add(st.DeltaBytesReparsed)
}

// publishCacheStats folds a cached run's cache effectiveness into the
// process-wide metrics. Separate from publishStats because the
// whole-image hit path never reaches run()/reconcile — it publishes
// here and nowhere else.
func publishCacheStats(st *Stats) {
	if !telemetry.Enabled() {
		return
	}
	m := &coreMetrics
	if st.CacheWholeHits > 0 {
		m.cacheWholeHits.Add(st.CacheWholeHits)
		m.cacheServes.Add(1)
		if h := m.engineNanos[flight.EngineCache.String()]; h != nil {
			h.Observe(int64(st.Wall))
		}
	}
	if st.CacheChunkHits > 0 {
		m.cacheChunkHits.Add(st.CacheChunkHits)
	}
	if st.CacheChunkMisses > 0 {
		m.cacheChunkMiss.Add(st.CacheChunkMisses)
	}
	if st.CacheBytesSaved > 0 {
		m.cacheBytesSaved.Add(st.CacheBytesSaved)
	}
}
