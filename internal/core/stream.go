package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"rocksalt/internal/telemetry"
)

// This file is the bounded-memory streaming verifier: the same staged
// engine driven through a sliding window of streamChunks chunks
// (512 KiB), for images too large (or too remote) to map whole.
//
// The scheme leans on the scratch base/imgSize geometry threaded
// through the engine: a window's shards are parsed in window-relative
// coordinates against a small window scratch whose base places it in
// the image, so straddle allowances and jump-target classification
// behave exactly as in a whole-image parse. Every chunk of a full
// window but the last is complete — the parse of a chunk reads at most
// lookahead()-1 bytes past its end (see fusedDFA.lookahead), and
// lookahead() is far below chunkBytes for every real grammar — so their
// artifacts are final the moment they are parsed. Each step parses that
// settled span on the stage-1 workers, through the same dispatcher
// Verify uses, and each worker harvests the shards it parsed into a
// full-image carry scratch (bitmap words copied to their absolute word
// positions, offsets and targets translated by the window base); shards
// own disjoint words and result entries there too, so the harvest needs
// no synchronization. The window then slides by the settled span and
// the loop continues. At EOF the remaining window is parsed in full,
// with the window end coinciding with the image end so the end-of-image
// straddle allowance applies.
//
// The carry state is the image's packed bitmaps (size/4 bytes) plus
// the per-shard results — the same retained form DeltaState holds — so
// memory is bounded by the bitmaps, not the code: the window holds
// only 512 KiB of image bytes, in a pooled buffer. Stage 2 then runs
// unchanged over the carry scratch with code == nil: verdict, offsets,
// kinds and details are identical to the in-memory verifier; the one
// documented difference is that stage-2 violations (TargetNotBoundary,
// the bundle-coverage scan) carry no Window byte excerpt, since the
// bytes around them are no longer resident.

const (
	// streamChunks is the window length in chunks. A step settles all
	// but the last chunk, so a wider window means fewer fork/joins of
	// the stage-1 workers per image; eight keeps the barrier cost small
	// next to the 28 shards a step parses.
	streamChunks = 8
	streamWindow = streamChunks * chunkBytes
	streamSettle = streamWindow - chunkBytes
)

// streamWin is one call's window: the image bytes and the scratch
// their shards are parsed into. It has a pool of its own, so a window
// never trades places with the whole-image scratches of the ordinary
// pool.
type streamWin struct {
	buf [streamWindow]byte
	sc  scratch
}

var streamWinPool = sync.Pool{New: func() any { return new(streamWin) }}

// VerifyReader streams an image from r through a bounded window and
// verifies it. opts.StreamSize must carry the total size (see its doc);
// when it is zero the stream is buffered whole in memory and verified
// by the ordinary path. The image is read 512 KiB at a time; each
// window's settled shards are parsed on opts.Workers stage-1 workers,
// clamped to the image's shards and to one window's, and
// Report.Workers is that clamped count.
func (c *Checker) VerifyReader(r io.Reader, opts VerifyOptions) (*Report, error) {
	return c.VerifyReaderContext(context.Background(), r, opts)
}

// VerifyReaderContext is VerifyReader under a context; the stage-1
// workers observe cancellation between shards, and an interrupted run
// stops reading at the next window step.
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
	var st Stats
	k := c.begin(size, opts, &st)

	// ssc is the carry state (absolute coordinates, full image), from
	// the ordinary pool; wsc is re-aimed at each window.
	ssc := getScratch(size, k.shards)
	defer putScratch(ssc)
	win := streamWinPool.Get().(*streamWin)
	defer streamWinPool.Put(win)
	window, wsc := win.buf[:], &win.sc
	k.workers = clampWorkers(opts.Workers, min(k.shards, shardCount(streamWindow)))

	// harvest banks the final artifacts of window shard ws into the
	// carry scratch as image shard gs. It runs on the worker that parsed
	// ws, and touches only that shard's words and result entries.
	harvest := func(ws, gs int) {
		const shardWords = ShardBytes / 64
		w0, w1 := ws*shardWords, min((ws+1)*shardWords, len(wsc.valid.Words()))
		copy(ssc.valid.Words()[gs*shardWords:], wsc.valid.Words()[w0:w1])
		copy(ssc.pairJmp.Words()[gs*shardWords:], wsc.pairJmp.Words()[w0:w1])
		base := (gs - ws) * ShardBytes
		src, dst := &wsc.results[ws], &ssc.results[gs]
		dst.lane, dst.scalar, dst.restart = src.lane, src.scalar, src.restart
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
	p := stage1{c: c, sc: wsc, engine: k.engine, fr: k.fr, frun: k.span.Run, after: harvest}

	endStage1 := telemetry.Region(ctx, "rocksalt.stage1.parse")
	base, filled := 0, 0
	var ctxErr error
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
		last := base+filled == size
		// Parse the settled span: all but the last chunk mid-stream (the
		// last provides their overhang), the whole remainder at EOF.
		// parseShardAt parses [ws*ShardBytes, min(·, filled)); mid-stream
		// that is exactly the shard, and the walk past the span's end
		// stays inside the last chunk (lookahead).
		span := streamSettle
		if last {
			span = filled
		}
		nshards := shardCount(span)
		wsc.reset(filled, nshards)
		wsc.base, wsc.imgSize = base, size
		p.code, p.g0 = window[:filled], base/ShardBytes
		p.dispatch(ctx, k.workers, nil)
		// The workers skip every shard after a cancel, so a done ctx
		// leaves holes in the carry state, final window included: stop
		// before any of it reaches reconcile.
		if ctxErr = ctx.Err(); ctxErr != nil || last {
			break
		}
		copy(window, window[span:filled])
		base += span
		filled -= span
	}
	endStage1()
	st.Stage1Wall = time.Since(k.t0)
	if ctxErr == nil {
		// A stream longer than declared would silently verify a prefix;
		// probe one byte to reject it.
		var one [1]byte
		if n, _ := io.ReadFull(r, one[:]); n > 0 {
			return nil, fmt.Errorf("core: stream continues past the declared %d bytes", size)
		}
	}
	rep := c.report(c.finish(ctx, &k, ctxErr, nil, ssc, nil, &st), size)
	rep.Stats = st
	return rep, nil
}
