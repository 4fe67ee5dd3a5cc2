package core

import (
	"context"
	"fmt"
	"io"
	"time"

	"rocksalt/internal/flight"
	"rocksalt/internal/telemetry"
)

// This file is the bounded-memory streaming verifier: the same staged
// engine driven through a sliding two-chunk window, for images too
// large (or too remote) to map whole.
//
// The scheme leans on the scratch base/imgSize geometry threaded
// through the engine: a window's shards are parsed in window-relative
// coordinates against a small window scratch whose base places it in
// the image, so straddle allowances and jump-target classification
// behave exactly as in a whole-image parse. The first chunk of the
// window is always complete — the parse of a chunk reads at most
// lookahead()-1 bytes past its end (see fusedDFA.lookahead), and
// lookahead() is far below chunkBytes for every real grammar — so its
// artifacts are final the moment it is parsed. They are harvested into
// a full-image carry scratch (bitmap words copied to their absolute
// word positions, offsets and targets translated by the window base),
// the window slides one chunk, and the loop continues. At EOF the
// remaining window is parsed in full, with the window end coinciding
// with the image end so the end-of-image straddle allowance applies.
//
// The carry state is the image's packed bitmaps (size/4 bytes) plus
// the per-shard results — the same retained form DeltaState holds — so
// memory is bounded by the bitmaps, not the code: the window holds
// only 128 KiB of image bytes. Stage 2 then runs unchanged over the
// carry scratch with code == nil: verdict, offsets, kinds and details
// are identical to the in-memory verifier; the one documented
// difference is that stage-2 violations (TargetNotBoundary, the
// bundle-coverage scan) carry no Window byte excerpt, since the bytes
// around them are no longer resident.

// VerifyReader streams an image from r through a bounded window and
// verifies it. opts.StreamSize must carry the total size (see its doc);
// when it is zero the stream is buffered whole in memory and verified
// by the ordinary path. Parsing is sequential (one window chunk at a
// time), so opts.Workers is ignored and Report.Workers is 1.
func (c *Checker) VerifyReader(r io.Reader, opts VerifyOptions) (*Report, error) {
	return c.VerifyReaderContext(context.Background(), r, opts)
}

// VerifyReaderContext is VerifyReader under a context; cancellation is
// observed between window chunks.
func (c *Checker) VerifyReaderContext(ctx context.Context, r io.Reader, opts VerifyOptions) (*Report, error) {
	if opts.StreamSize <= 0 {
		code, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("core: buffering stream: %w", err)
		}
		return c.VerifyContext(ctx, code, opts), nil
	}
	// Direct-jump targets are represented as int32 throughout the
	// engine; images at or beyond 2 GiB are out of contract for the
	// in-memory verifier too, so fail loudly instead of truncating.
	if opts.StreamSize >= 1<<31 {
		return nil, fmt.Errorf("core: stream size %d exceeds the verifier's 2 GiB image ceiling", opts.StreamSize)
	}
	if c.fused == nil {
		return nil, fmt.Errorf("core: VerifyReader requires fused tables")
	}
	if c.fused.lookahead() >= chunkBytes {
		// Impossible for the x86 grammars (instruction length is
		// bounded); reachable only through a degenerate custom bundle.
		return nil, fmt.Errorf("core: automaton lookahead %d reaches past a window chunk; stream verification unavailable", c.fused.lookahead())
	}
	size := int(opts.StreamSize)
	shards := shardCount(size)

	var st Stats
	t0 := time.Now()
	st.BytesScanned = int64(size)
	st.Bundles = int64((size + c.params.bundle - 1) / c.params.bundle)
	st.Shards = int64(shards)
	engine, mode := c.resolveEngine(opts)
	st.Engine = engineName(engine, mode)
	fr := flight.Active()
	frun, frt0 := flightBegin(fr)

	// ssc is the carry state (absolute coordinates, full image); wsc is
	// re-aimed at each window. Both come from the ordinary pool.
	ssc := getScratch(size, shards)
	defer putScratch(ssc)
	wsc := getScratch(2*chunkBytes, shardCount(2*chunkBytes))
	defer putScratch(wsc)
	window := make([]byte, 2*chunkBytes)

	// harvest banks the final artifacts of window bytes [0, n) — always
	// whole shards — into the carry scratch at absolute offset base.
	harvest := func(base, n int) {
		w0 := base / 64
		nw := (n + 63) / 64
		copy(ssc.valid.Words()[w0:w0+nw], wsc.valid.Words()[:nw])
		copy(ssc.pairJmp.Words()[w0:w0+nw], wsc.pairJmp.Words()[:nw])
		for ws := 0; ws*ShardBytes < n; ws++ {
			src, dst := &wsc.results[ws], &ssc.results[base/ShardBytes+ws]
			dst.lane, dst.swar, dst.scalar, dst.restart, dst.backoff =
				src.lane, src.swar, src.scalar, src.restart, src.backoff
			dst.insns = src.insns
			for _, v := range src.violations {
				v.Offset += base
				dst.violations = append(dst.violations, v)
			}
			for _, t := range src.targets {
				dst.targets = append(dst.targets, t+int32(base))
			}
			for _, t := range src.bad {
				dst.bad = append(dst.bad, t+int32(base))
			}
		}
	}

	endStage1 := telemetry.Region(ctx, "rocksalt.stage1.parse")
	base, filled := 0, 0
	interrupted := false
	for {
		// Top the window up, never reading past the declared size.
		want := len(window) - filled
		if rem := size - base - filled; want > rem {
			want = rem
		}
		if want > 0 {
			n, err := io.ReadFull(r, window[filled:filled+want])
			filled += n
			if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
				endStage1()
				return nil, fmt.Errorf("core: reading stream at offset %d: %w", base+filled, err)
			}
		}
		if base+filled < size && filled < len(window) {
			endStage1()
			return nil, fmt.Errorf("core: stream ended at %d bytes, %d declared", base+filled, size)
		}
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		last := base+filled == size
		// Parse the settled span: the first chunk mid-stream (the second
		// chunk provides its overhang), the whole remainder at EOF.
		span := chunkBytes
		if last {
			span = filled
		}
		wsc.valid.Reset(filled)
		wsc.pairJmp.Reset(filled)
		wsc.base, wsc.imgSize = base, size
		nshards := shardCount(span)
		for ws := 0; ws < nshards; ws++ {
			wsc.results[ws].reset()
			c.parseShardAt(window[:filled], ws, base/ShardBytes+ws, wsc, engine, mode, fr, frun, 0)
		}
		// parseShardAt parses [ws*ShardBytes, min(·, filled)); for the
		// mid-stream first chunk that span is exactly the chunk, and the
		// walk past its end stays inside the second chunk (lookahead).
		harvest(base, span)
		if last {
			break
		}
		copy(window, window[chunkBytes:filled])
		base += chunkBytes
		filled -= chunkBytes
	}
	endStage1()
	st.Stage1Wall = time.Since(t0)
	if !interrupted {
		// A stream longer than declared would silently verify a prefix;
		// probe one byte to reject it.
		var one [1]byte
		if n, _ := io.ReadFull(r, one[:]); n > 0 {
			return nil, fmt.Errorf("core: stream continues past the declared %d bytes", size)
		}
	}
	if interrupted {
		err := ctx.Err()
		st.Wall = time.Since(t0)
		publishStats(&st, true, false)
		if fr != nil {
			fr.Record(flight.Event{Kind: flight.SpanRun, Engine: runFlightEngine(engine, mode),
				Run: frun, Start: frt0, Dur: fr.Now() - frt0, Bytes: int64(size)})
		}
		rep := c.report(runResult{shards: shards, workers: 1, ctxErr: err}, size)
		rep.Stats = st
		return rep, nil
	}

	t1 := time.Now()
	var frt1 int64
	if fr != nil {
		frt1 = fr.Now()
	}
	endReconcile := telemetry.Region(ctx, "rocksalt.stage2.reconcile")
	violations, total := c.reconcile(ctx, nil, ssc, &st, fr, frun)
	endReconcile()
	if fr != nil {
		fr.Record(flight.Event{Kind: flight.SpanReconcile, Run: frun,
			Start: frt1, Dur: fr.Now() - frt1, Bytes: int64(total)})
	}
	for i := range ssc.results {
		r := &ssc.results[i]
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
	publishStats(&st, false, total > 0)
	if fr != nil {
		fr.Record(flight.Event{Kind: flight.SpanRun, Engine: runFlightEngine(engine, mode),
			Run: frun, Start: frt0, Dur: fr.Now() - frt0, Bytes: int64(size)})
	}
	rep := c.report(runResult{violations: violations, total: total, shards: shards, workers: 1}, size)
	rep.Stats = st
	return rep, nil
}
