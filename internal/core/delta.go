package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rocksalt/internal/flight"
	"rocksalt/internal/telemetry"
	"rocksalt/internal/vcache"
)

// This file is the incremental (delta) verifier: re-verification after
// an edit in time proportional to the edited bytes, not the image.
//
// The substrate is the same decomposition the chunk cache rests on: a
// stage-1 shard parse is a pure function of its chunk's bytes plus at
// most lookahead()-1 bytes past the chunk end (see fusedDFA.lookahead),
// the image size, and the checker configuration. A DeltaState retains
// the whole-image stage-1 artifacts of the previous round — the packed
// boundary/pairJmp bitmaps and every shard's result (targets, proven-bad
// targets, parse-mode flags, instruction count): the in-memory,
// whole-image form of the chunk cache's chunkEntry. A delta round
// re-parses only the chunks whose parse inputs may have changed and then
// re-runs the ordinary stage-2 reconciliation over the merged results.
// Every chunk is retained, the final one included: its parse also
// depends on where the image ends (the end-of-image straddle allowance,
// target classification), but those inputs move only with the size,
// and a size change re-parses it (below). No step of a round passes
// over the image's bytes or bitmaps: the dirty set is O(chunks), the
// re-parse O(edit), and stage 2 O(shards + cross-shard targets), with
// Stats.Instructions a sum of retained per-shard counts.
//
// Verdicts are byte-identical to a from-scratch Verify because both
// stages are reproduced exactly:
//
//   - Stage 1: a retained chunk's bytes, overhang bytes, offset, image
//     size and configuration are unchanged (anything else dirties it),
//     so its retained artifacts are exactly what re-parsing it would
//     produce. Dirty chunks are re-parsed through the identical engine
//     dispatch (parseShardAt), after their bitmap words and results are
//     erased — the same erase-then-reparse discipline the lane engine
//     uses for restarts.
//   - Stage 2: reconcile runs unchanged over all shard results, so
//     cross-chunk jump validation, bundle-boundary coverage and the
//     deterministic (offset, kind) ordering are recomputed against the
//     current merged state every round. Stale cross-chunk conclusions
//     cannot survive: stage 2 never reads the previous round's output.
//
// Image size changes need care beyond byte ranges, because stage 1
// classifies direct-jump targets against the image size:
//   - every chunk whose parse window reaches past min(old, new) size is
//     re-parsed (its bytes or straddle/walk envelope changed) — the
//     final chunk of either size always is;
//   - a retained chunk holding a banked target at or beyond the new
//     size is re-parsed (on a shrink the target's classification flips
//     to out-of-image);
//   - if any whitelisted entry point lies in [min, max) of the two
//     sizes, everything is re-parsed: a jump to such an entry was
//     legally out-of-image in one size and an in-image target needing
//     boundary validation in the other, and the allowed form leaves no
//     artifact to re-examine.
// FuzzDeltaEquiv exercises all of these against full verification.

// Range describes one edited byte span of the image, [Off, Off+Len).
// Ranges may overlap chunk boundaries, each other, or the image end
// (they are clamped). An edit that moves bytes (an insertion or
// deletion) must be reported as changing everything from the edit point
// to the image end — VerifyDelta's contract is that bytes outside every
// range (and below min(old, new) size) are identical to the previous
// round's image.
type Range struct {
	Off int
	Len int
}

// DeltaState is the retained artifact a VerifyDelta round reconciles
// against: the previous round's merged stage-1 state for the whole
// image. It is owned by the delta session — never pooled — and is
// mutated and returned by each round. A DeltaState is only meaningful
// for the checker that produced it; handing it to a differently
// configured checker is detected (the config key mismatches) and
// degrades to a full re-parse, never to a wrong verdict. Its memory
// footprint is size/4 bytes of bitmaps plus ~100 bytes per 16 KiB
// shard; it also keeps each round's dirty set and re-parse list as
// scratch, so a steady-state round allocates nothing that grows with
// the image.
//
// A DeltaState must not be used concurrently: one round at a time.
type DeltaState struct {
	cfg      vcache.Key
	size     int
	overhang int
	sc       scratch
	// chunkClean[i] records that chunk i's latest parse found no
	// shard-local violation, licensing replay next round. Every chunk
	// of the image is tracked, the final one included. Violating chunks
	// are re-parsed every round (mirroring the chunk cache's
	// never-store-violations rule), so a verdict can never be assembled
	// from stale violations.
	chunkClean []bool
	// dirty (per chunk) and reparse (shard indices) are the current
	// round's dirty set, reused across rounds.
	dirty   []bool
	reparse []int
}

// Size returns the image size the state currently describes.
func (st *DeltaState) Size() int { return st.size }

// VerifyDelta re-verifies code after an edit, re-parsing only the
// chunks overlapping the changed ranges (plus whatever the state
// cannot vouch for) and re-running stage 2 against the merged state.
// prev is the state returned by the previous round, or nil for the
// first round (which parses everything and builds the state); it is
// consumed — the caller must use the returned state for the next round.
// The report is byte-identical to c.VerifyWith(code, opts) on the same
// image, with the delta reuse counters added in Stats.
func (c *Checker) VerifyDelta(code []byte, changed []Range, prev *DeltaState) (*Report, *DeltaState, error) {
	return c.VerifyDeltaContext(context.Background(), code, changed, prev, VerifyOptions{})
}

// VerifyDeltaWith is VerifyDelta with explicit options. Engine and
// Workers apply to the re-parsed shards; when Cache is set the round
// also stores refreshed chunk entries back through the verdict cache,
// so a delta session warms the ordinary keyed path. CacheKey is
// ignored (a delta round never computes whole-image keys — that would
// cost a full content hash).
func (c *Checker) VerifyDeltaWith(code []byte, changed []Range, prev *DeltaState, opts VerifyOptions) (*Report, *DeltaState, error) {
	return c.VerifyDeltaContext(context.Background(), code, changed, prev, opts)
}

// VerifyDeltaContext is VerifyDeltaWith under a context. An interrupted
// round returns the usual Canceled/Deadline report plus a state that
// remains sound: every chunk of the round's dirty set is marked
// unclean, so the next round re-parses whatever this one may have left
// half-written.
func (c *Checker) VerifyDeltaContext(ctx context.Context, code []byte, changed []Range, prev *DeltaState, opts VerifyOptions) (*Report, *DeltaState, error) {
	if c.fused == nil {
		return nil, prev, errors.New("core: VerifyDelta requires fused tables (reference-only checkers cannot retain chunk state)")
	}
	for _, r := range changed {
		if r.Off < 0 || r.Len < 0 {
			return nil, prev, fmt.Errorf("core: negative delta range {%d, %d}", r.Off, r.Len)
		}
	}
	size := len(code)
	shards := shardCount(size)
	nc := (size + chunkBytes - 1) / chunkBytes
	cfg := c.configKey()
	overhang := c.fused.lookahead()

	st := prev
	fresh := st == nil || st.cfg != cfg
	if fresh {
		st = &DeltaState{cfg: cfg, overhang: overhang}
	}
	var t0 time.Time
	stats := Stats{
		BytesScanned: int64(size),
		Bundles:      int64((size + c.params.bundle - 1) / c.params.bundle),
		Shards:       int64(shards),
	}
	t0 = time.Now()
	engine, mode := c.resolveEngine(opts)
	stats.Engine = engineName(engine, mode)

	// The dirty set: chunks whose retained artifacts cannot be trusted
	// this round. The final chunk is tracked like any other: its parse
	// depends on the image end, but the size-change rules below dirty it
	// whenever the size moves, so a same-size round may replay it.
	dirty := st.dirty
	if cap(dirty) < nc {
		dirty = make([]bool, nc)
	} else {
		dirty = dirty[:nc]
		clear(dirty)
	}
	st.dirty = dirty
	if fresh {
		for i := range dirty {
			dirty[i] = true
		}
	} else {
		for i := range dirty {
			if i >= len(st.chunkClean) || !st.chunkClean[i] {
				dirty[i] = true
			}
		}
		for _, r := range changed {
			lo, hi := r.Off, r.Off+r.Len
			if hi > size {
				hi = size
			}
			if hi <= lo {
				continue
			}
			// Chunk i's parse reads [i*chunkBytes, (i+1)*chunkBytes +
			// overhang); it is dirty iff the edit intersects that window.
			i := (lo - overhang) / chunkBytes
			if i < 0 {
				i = 0
			}
			for ; i < nc && i*chunkBytes < hi; i++ {
				if lo < (i+1)*chunkBytes+overhang {
					dirty[i] = true
				}
			}
		}
		if size != st.size {
			lo, hi := st.size, size
			if lo > hi {
				lo, hi = hi, lo
			}
			all := false
			for e, ok := range c.Entries {
				if ok && int64(e) >= int64(lo) && int64(e) < int64(hi) {
					all = true
					break
				}
			}
			for i := range dirty {
				if all || (i+1)*chunkBytes+overhang > lo {
					dirty[i] = true
				}
			}
			// A retained target at or beyond the new size would have been
			// classified out-of-image by a full run; re-parse its chunk.
			for i := 0; i < nc; i++ {
				if dirty[i] {
					continue
				}
				for s := i * chunkShards; s < (i+1)*chunkShards && s < len(st.sc.results); s++ {
					for _, t := range st.sc.results[s].targets {
						if int(t) >= lo {
							dirty[i] = true
							break
						}
					}
					if dirty[i] {
						break
					}
				}
			}
		}
	}

	// Resize the retained state to the new geometry, preserving the
	// clean chunks' bits; anything near or past min(old, new) size is
	// in the dirty set and about to be erased anyway.
	st.sc.valid.Resize(size)
	st.sc.pairJmp.Resize(size)
	if cap(st.sc.results) < shards {
		res := make([]shardResult, shards)
		copy(res, st.sc.results)
		st.sc.results = res
	} else {
		old := len(st.sc.results)
		st.sc.results = st.sc.results[:shards]
		for s := old; s < shards; s++ {
			st.sc.results[s].reset()
		}
	}
	st.sc.base, st.sc.imgSize = 0, size

	// Erase-then-reparse: list the dirty shards and clear their bitmap
	// words and results, so the parse appends onto clean slates.
	reparse := st.reparse[:0]
	for i := range dirty {
		if dirty[i] {
			for s := i * chunkShards; s < (i+1)*chunkShards && s < shards; s++ {
				reparse = append(reparse, s)
			}
		}
	}
	st.reparse = reparse
	var reparsedBytes int64
	for _, s := range reparse {
		lo, hi := s*ShardBytes, (s+1)*ShardBytes
		if hi > size {
			hi = size
		}
		st.sc.valid.ClearRange(lo, hi)
		st.sc.pairJmp.ClearRange(lo, hi)
		st.sc.results[s].reset()
		reparsedBytes += int64(hi - lo)
	}

	dirtyChunks := 0
	for i := range dirty {
		if dirty[i] {
			dirtyChunks++
		}
	}
	stats.DeltaChunksReparsed = int64(dirtyChunks)
	stats.DeltaChunksReplayed = int64(nc - dirtyChunks)
	stats.DeltaBytesReparsed = reparsedBytes

	fr := flight.Active()
	frun, frt0 := flightBegin(fr)
	if fr != nil {
		// One replay event per maximal run of replayed chunks, so a round's
		// trace grows with the edit, not with the image.
		for i := 0; i < nc; {
			if dirty[i] {
				i++
				continue
			}
			j := i + 1
			for j < nc && !dirty[j] {
				j++
			}
			fr.Record(flight.Event{Kind: flight.EventChunkReplay, Engine: flight.EngineCache,
				Shard: uint32(i * chunkShards), Run: frun, Start: fr.Now(),
				Bytes: int64(min(j*chunkBytes, size) - i*chunkBytes)})
			i = j
		}
	}

	workers := clampWorkers(opts.Workers, len(reparse))
	endStage1 := telemetry.Region(ctx, "rocksalt.stage1.parse")
	if workers == 1 {
		for _, s := range reparse {
			if ctx.Err() != nil {
				break
			}
			c.parseOne(code, s, &st.sc, engine, mode, fr, frun, 0)
		}
	} else {
		// The workers capture sc, not st: st is reassigned above, so
		// capturing it would move it to the heap on every round.
		sc := &st.sc
		var wg sync.WaitGroup
		jobs := make(chan int, len(reparse))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for s := range jobs {
					if ctx.Err() != nil {
						return
					}
					c.parseOne(code, s, sc, engine, mode, fr, frun, w)
				}
			}(w)
		}
		for _, s := range reparse {
			jobs <- s
		}
		close(jobs)
		wg.Wait()
	}
	endStage1()
	stats.Stage1Wall = time.Since(t0)

	// chunkClean tracks the new geometry from here on; an interrupted
	// round distrusts the whole dirty set.
	if len(st.chunkClean) < nc {
		st.chunkClean = append(st.chunkClean, make([]bool, nc-len(st.chunkClean))...)
	}
	st.chunkClean = st.chunkClean[:nc]
	st.size = size
	if err := ctx.Err(); err != nil {
		for i := range dirty {
			if dirty[i] {
				st.chunkClean[i] = false
			}
		}
		stats.Wall = time.Since(t0)
		publishStats(&stats, true, false)
		if fr != nil {
			fr.Record(flight.Event{Kind: flight.SpanDelta, Run: frun,
				Start: frt0, Dur: fr.Now() - frt0, Bytes: reparsedBytes})
		}
		rep := c.report(runResult{shards: shards, workers: workers, ctxErr: err}, size)
		rep.Stats = stats
		return rep, st, nil
	}
	for i := range dirty {
		if !dirty[i] {
			continue
		}
		clean := true
		for s := i * chunkShards; s < (i+1)*chunkShards && s < shards; s++ {
			if len(st.sc.results[s].violations) > 0 {
				clean = false
				break
			}
		}
		st.chunkClean[i] = clean
	}

	// Satellite of the chunk cache: bank the refreshed chunks so a delta
	// session also warms the ordinary keyed Verify path. Only re-parsed
	// clean chunks are hashed — O(changed bytes), like the parse — and
	// only the cacheable prefix: the cache never holds the final chunk.
	if opts.Cache != nil {
		var ft0 int64
		if fr != nil {
			ft0 = fr.Now()
		}
		var storedBytes int64
		wvalid, wpair := st.sc.valid.Words(), st.sc.pairJmp.Words()
		for i := range dirty[:cacheableChunks(size)] {
			if !dirty[i] || !st.chunkClean[i] {
				continue
			}
			w0 := i * chunkBytes / 64
			e := &chunkEntry{
				valid:   append([]uint64(nil), wvalid[w0:w0+chunkBytes/64]...),
				pairJmp: append([]uint64(nil), wpair[w0:w0+chunkBytes/64]...),
			}
			for s := i * chunkShards; s < (i+1)*chunkShards; s++ {
				e.targets = append(e.targets, st.sc.results[s].targets...)
				e.bad = append(e.bad, st.sc.results[s].bad...)
			}
			opts.Cache.Put(c.chunkSum(cfg, code, i, overhang), e, e.size())
			storedBytes += chunkBytes
		}
		if fr != nil && storedBytes > 0 {
			fr.Record(flight.Event{Kind: flight.SpanCacheStore, Engine: flight.EngineCache,
				Run: frun, Start: ft0, Dur: fr.Now() - ft0, Bytes: storedBytes})
		}
	}

	t1 := time.Now()
	var frt1 int64
	if fr != nil {
		frt1 = fr.Now()
	}
	endReconcile := telemetry.Region(ctx, "rocksalt.stage2.reconcile")
	violations, total := c.reconcile(ctx, code, &st.sc, &stats, fr, frun)
	endReconcile()
	if fr != nil {
		fr.Record(flight.Event{Kind: flight.SpanReconcile, Run: frun,
			Start: frt1, Dur: fr.Now() - frt1, Bytes: int64(total)})
	}
	// Parse-mode counters cover only the shards this round actually
	// parsed, mirroring how cached runs count only non-restored shards.
	for _, s := range reparse {
		r := &st.sc.results[s]
		if r.lane || r.swar {
			stats.LaneBatches++
		}
		if r.swar {
			stats.SWARBatches++
		}
		if r.scalar {
			stats.ScalarFallbacks++
		}
		if r.restart {
			stats.Restarts++
		}
	}
	stats.Stage2Wall = time.Since(t1)
	stats.Wall = time.Since(t0)
	publishStats(&stats, false, total > 0)
	publishDeltaStats(&stats)
	if fr != nil {
		fr.Record(flight.Event{Kind: flight.SpanDelta, Run: frun,
			Start: frt0, Dur: fr.Now() - frt0, Bytes: reparsedBytes})
	}
	rep := c.report(runResult{violations: violations, total: total, shards: shards, workers: workers}, size)
	rep.Stats = stats
	return rep, st, nil
}
