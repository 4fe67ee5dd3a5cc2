package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"rocksalt/internal/flight"
	"rocksalt/internal/telemetry"
	"rocksalt/internal/vcache"
)

// This file is the incremental (delta) verifier: re-verification after
// an edit in time proportional to the edited bytes, not the image.
//
// The substrate is the shard decomposition: a stage-1 shard parse is a
// pure function of its chunk's bytes plus at most lookahead()-1 bytes
// past the chunk end (see fusedDFA.lookahead), the image size, and the
// checker configuration. A DeltaState retains the whole-image stage-1
// artifacts of the previous round in the engine's own scratch form —
// the packed boundary bitmap, every shard's result (cross-shard
// targets, proven-bad targets, parse-mode flags, instruction count) and
// its stage-2 summary byte, and the running instruction total — the
// form the streaming verifier's carry state also takes. A delta round
// re-parses only the chunks whose parse inputs may have changed and
// then re-runs the ordinary stage-2 reconciliation over the merged
// results.
// Every chunk is retained, the final one included: its parse also
// depends on where the image ends (the end-of-image straddle allowance,
// target classification), but those inputs move only with the size,
// and a size change re-parses it (below). No step of a same-size round
// passes over the image's bytes, bitmaps or chunks: the dirty set is
// built from the edit ranges and the retained list of unclean chunks,
// the re-parse is O(edit), and stage 2 reads the summary bytes a word
// (eight shards) at a time and visits only the flagged shards, with
// Stats.Instructions the running total. A round that changes the size
// still applies the O(chunks) rules below.
//
// Verdicts are byte-identical to a from-scratch Verify because both
// stages are reproduced exactly:
//
//   - Stage 1: a retained chunk's bytes, overhang bytes, offset, image
//     size and configuration are unchanged (anything else dirties it),
//     so its retained artifacts are exactly what re-parsing it would
//     produce. Dirty chunks are re-parsed through the identical engine
//     plan (stage1.parsePlan), after their bitmap words and results
//     are erased — the same erase-then-reparse discipline the lane
//     engine uses for restarts.
//   - Stage 2: reconcile runs unchanged over the shard results, so
//     cross-chunk jump validation, bundle-boundary coverage and the
//     deterministic (offset, kind) ordering are recomputed against the
//     current merged state every round. The shards it skips are those
//     whose summary byte says they hold nothing to check, the same rule
//     a full run applies, and the byte is rewritten with every parse.
//     Stale cross-chunk conclusions cannot survive: stage 2 never reads
//     the previous round's output.
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

// chunkBytes is the delta verifier's reuse unit: an aligned span of
// four stage-1 shards.
// Coarse enough that the per-chunk bookkeeping stays small, fine enough
// that a local edit re-parses little.
const chunkBytes = 64 << 10

// chunkShards is how many stage-1 shards one chunk covers.
const chunkShards = chunkBytes / ShardBytes

// chunkClean reports whether chunk i of sc parsed without a shard-local
// violation. It is the one reuse rule: a delta round replays only clean
// chunks, so a violating chunk is re-parsed every time it is verified
// and no verdict is ever assembled from stale violations.
func chunkClean(sc *scratch, i int) bool {
	for s := i * chunkShards; s < (i+1)*chunkShards && s < len(sc.results); s++ {
		if len(sc.results[s].violations) > 0 {
			return false
		}
	}
	return true
}

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
// footprint is size/8 bytes of boundary bitmap, ~100 bytes per 16 KiB
// shard and 4 bytes per cross-shard jump target: 0.131 x size on an
// image whose jumps stay in their shards (TestDeltaStateFootprint).
// The per-shard bytes include the shard's result and summary byte, and
// room for reconcile's flagged-shard list and the round's re-parse
// list; the chunk lists (dirty, unclean) take at most 8 bytes per
// 64 KiB chunk. All of it is kept as scratch so a steady-state round
// allocates nothing that grows with the image.
//
// A DeltaState must not be used concurrently: one round at a time.
type DeltaState struct {
	cfg      vcache.Key
	size     int
	overhang int
	sc       scratch
	// unclean lists, ascending, the chunks whose latest parse failed
	// chunkClean or was interrupted; every other chunk of the image, the
	// final one included, passed it, which licenses its replay.
	unclean []int
	// dirty (chunk indices) and reparse (shard indices) are the current
	// round's dirty set, reused across rounds.
	dirty   []int
	reparse []int
}

// resize returns s at length n, keeping its first min(len(s), n)
// elements; any it adds are zero.
func resize[T any](s []T, n int) []T {
	if n <= len(s) {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
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
// Workers apply to the re-parsed shards. Cache and CacheKey are
// ignored: a delta round never computes a whole-image key, which would
// cost a hash of every byte, and the retained state is its own reuse.
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
	nc := (size + chunkBytes - 1) / chunkBytes
	cfg := c.configKey()
	overhang := c.fused.lookahead()

	st := prev
	fresh := st == nil || st.cfg != cfg
	if fresh {
		// reparse starts non-nil: a nil stage-1 plan means every shard.
		st = &DeltaState{cfg: cfg, overhang: overhang, reparse: []int{}}
	}
	var stats Stats
	k := c.begin(size, opts, &stats)
	shards := k.shards

	// The dirty set, as ascending chunk indices: the chunks whose retained
	// artifacts cannot be trusted this round. The final chunk is tracked
	// like any other: its parse depends on the image end, but the
	// size-change rules below dirty it whenever the size moves, so a
	// same-size round may replay it. A same-size round builds the set
	// from the retained unclean list and the edit ranges alone.
	dirty := st.dirty[:0]
	if fresh {
		for i := 0; i < nc; i++ {
			dirty = append(dirty, i)
		}
	} else {
		dirty = append(dirty, st.unclean...)
		for _, r := range changed {
			// Clamp to the image without computing Off+Len, which
			// overflows for a range meant to run to the end.
			lo, hi := r.Off, size
			if r.Len < size-lo {
				hi = lo + r.Len
			}
			if hi <= lo {
				continue
			}
			// Chunk i's parse reads [i*chunkBytes, (i+1)*chunkBytes +
			// overhang); it is dirty iff the edit intersects that window.
			for i := max((lo-overhang)/chunkBytes, 0); i < nc && i*chunkBytes < hi; i++ {
				if lo < (i+1)*chunkBytes+overhang {
					dirty = append(dirty, i)
				}
			}
		}
		if size != st.size {
			lo, hi := min(st.size, size), max(st.size, size)
			all := false
			for e, ok := range c.Entries {
				if ok && int64(e) >= int64(lo) && int64(e) < int64(hi) {
					all = true
					break
				}
			}
			for i := 0; i < nc; i++ {
				d := all || (i+1)*chunkBytes+overhang > lo
				// A retained target at or beyond the new size would have
				// been classified out-of-image by a full run; re-parse its
				// chunk. A chunk short of lo has all its shards retained.
				for s := i * chunkShards; !d && s < (i+1)*chunkShards; s++ {
					d = slices.ContainsFunc(st.sc.results[s].targets, func(t int32) bool { return int(t) >= lo })
				}
				if d {
					dirty = append(dirty, i)
				}
			}
		}
		slices.Sort(dirty)
		dirty = slices.Compact(dirty)
		// A shrink leaves unclean chunks past the new end.
		for len(dirty) > 0 && dirty[len(dirty)-1] >= nc {
			dirty = dirty[:len(dirty)-1]
		}
	}
	st.dirty = dirty

	// Resize the retained state to the new geometry, preserving the
	// clean chunks' bits; anything near or past min(old, new) size is
	// in the dirty set and about to be erased anyway. Shards cut off by
	// a shrink leave the instruction total.
	st.sc.valid.Resize(size)
	for s := shards; s < len(st.sc.results); s++ {
		st.sc.insns -= int64(st.sc.results[s].insns)
	}
	st.sc.results = resize(st.sc.results, shards)
	st.sc.check = resize(st.sc.check, shards)
	st.sc.base, st.sc.imgSize = 0, size

	// Erase-then-reparse: list the dirty shards and clear their bitmap
	// words, results and instruction counts, so the parse appends onto
	// clean slates. An erased shard stays flagged until it is parsed.
	reparse := st.reparse[:0]
	var reparsedBytes int64
	for _, i := range dirty {
		for s := i * chunkShards; s < (i+1)*chunkShards && s < shards; s++ {
			lo, hi := s*ShardBytes, min((s+1)*ShardBytes, size)
			st.sc.valid.ClearRange(lo, hi)
			st.sc.insns -= int64(st.sc.results[s].insns)
			st.sc.results[s].reset()
			st.sc.check[s] = 1
			reparse = append(reparse, s)
			reparsedBytes += int64(hi - lo)
		}
	}
	st.reparse = reparse

	stats.DeltaChunksReparsed = int64(len(dirty))
	stats.DeltaChunksReplayed = int64(nc - len(dirty))
	stats.DeltaBytesReparsed = reparsedBytes

	if k.fr != nil {
		// One replay event per maximal run of replayed chunks (the gaps
		// between dirty chunks), so a round's trace grows with the edit,
		// not with the image.
		i := 0
		for d := 0; d <= len(dirty); d++ {
			j := nc
			if d < len(dirty) {
				j = dirty[d]
			}
			if i < j {
				k.fr.Record(flight.Event{Kind: flight.EventChunkReplay, Engine: flight.EngineCache,
					Shard: uint32(i * chunkShards), Run: k.span.Run, Start: k.fr.Now(),
					Bytes: int64(min(j*chunkBytes, size) - i*chunkBytes)})
			}
			i = j + 1
		}
	}
	k.span.Kind, k.span.Engine, k.span.Bytes = flight.SpanDelta, flight.EngineNone, reparsedBytes

	k.workers = clampWorkers(opts.Workers, len(reparse))
	endStage1 := telemetry.Region(ctx, "rocksalt.stage1.parse")
	stage1{c: c, code: code, sc: &st.sc, engine: k.engine, fr: k.fr, frun: k.span.Run}.parsePlan(ctx, k.workers, reparse)
	endStage1()
	stats.Stage1Wall = time.Since(k.t0)

	// Every chunk outside the dirty set kept its clean parse, so the
	// unclean list is the dirty chunks that failed chunkClean; an
	// interrupted round distrusts its whole dirty set.
	st.size = size
	err := ctx.Err()
	st.unclean = st.unclean[:0]
	for _, i := range dirty {
		if err != nil || !chunkClean(&st.sc, i) {
			st.unclean = append(st.unclean, i)
		}
	}

	out := c.finish(ctx, &k, err, code, &st.sc, reparse, &stats)
	if err == nil {
		publishDeltaStats(&stats)
	}
	rep := c.report(out, size)
	rep.Stats = stats
	return rep, st, nil
}
