package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"rocksalt/internal/telemetry"
)

// This file is the bounded-memory streaming verifier: the same staged
// engine driven through two window buffers of streamShards shards
// (256 KiB each), for images too large (or too remote) to map whole.
//
// The scheme leans on the scratch base/imgSize geometry threaded
// through the engine: a window's shards are parsed in window-relative
// coordinates against a window scratch whose base places it in the
// image, so straddle allowances and jump-target classification behave
// exactly as in a whole-image parse. Every shard of a full window but
// the last is complete — a shard parse reads at most lookahead()-1
// bytes past its end (see fusedDFA.lookahead), and lookahead() is far
// below ShardBytes for every real grammar — so the artifacts of the
// window's settled span are final the moment they are parsed. Window k
// starts at image offset k*streamSettle, the last window is the first
// that reaches the image end, and it settles in full, its end being
// the image end, so the end-of-image straddle allowance applies.
//
// One stage-1 pool serves the whole call (engine.go's pool): the call
// starts it once and publishes each window's settled shards as its
// bytes arrive, so the workers run from one window into the next with
// no fork or join between them. The caller reads window k+1 into the
// other buffer, carrying window k's last shard over, while the pool
// parses window k; it then parses shards itself, as worker 0, until the
// buffer it must refill next is free. A buffer frees when the last of
// its window's shards finishes, and a caller that parses finds that out
// between its own shards, with no wake-up to wait for: a woken caller
// can queue behind a worker that never blocks. Each shard is harvested
// by the worker that parsed it into a full-image carry scratch (bitmap
// words copied to their absolute word positions, offsets and targets
// translated by the window base); shards own disjoint words and result
// entries there too, so the harvest needs no synchronization.
//
// The carry state is the image's packed boundary bitmap (size/8 bytes)
// plus the per-shard results and their cross-shard targets — the same
// retained form DeltaState holds — so memory is bounded by the bitmap,
// not the code: the two windows hold 512 KiB of image bytes, in pooled
// buffers. Stage 2 then runs unchanged over the carry scratch with
// code == nil: verdict, offsets, kinds and details are identical to
// the in-memory verifier; the one
// documented difference is that stage-2 violations (TargetNotBoundary,
// the bundle-coverage scan) carry no Window byte excerpt, since the
// bytes around them are no longer resident.

const (
	// streamShards is a window buffer's length in shards. A mid-stream
	// window settles all but its last shard, which the next window
	// starts with. Each call holds two buffers, together the 512 KiB
	// that bound its window memory: a call that finds the pool empty
	// faults in every page of it, so wider windows would cost a fresh
	// process set-up time while saving only a shard copy per window.
	streamShards = 16
	streamWindow = streamShards * ShardBytes
	streamSettle = streamWindow - ShardBytes
)

// streamWin is one call's window memory and its stage-1 pool: two
// window buffers and the scratch each one's shards are parsed into. It
// has a pool of its own, so a window never trades places with the
// whole-image scratches of the ordinary pool. Plan entry g is image
// shard g, parsed in the window that settles it.
type streamWin struct {
	pool
	buf [2][streamWindow]byte
	sc  [2]scratch
	// win is the stage-1 pass over each buffer's current window; left
	// counts the shards of that window not yet retired. The caller
	// rewrites a buffer only once its count is 0, and a worker reads
	// win only for a shard it claimed, so neither needs a lock.
	win  [2]stage1
	left [2]atomic.Int32
	// last is the image's last window, carry the full-image scratch
	// every shard is harvested into.
	last  int
	carry *scratch
	// freed, on the pool's mutex, wakes a caller waiting for a buffer.
	freed sync.Cond
	// probe receives the byte VerifyReader reads past the declared
	// size; held here, it costs the call no allocation.
	probe [1]byte
}

var streamWinPool = sync.Pool{New: func() any { return new(streamWin) }}

// run parses image shard g on worker w in the window that settles it
// and harvests it, unless ctx is done, then retires it from its
// buffer's count.
func (s *streamWin) run(g, w int) {
	b := min(g/(streamSettle/ShardBytes), s.last) & 1
	if s.ctx.Err() == nil {
		p := &s.win[b]
		p.parse(g-p.g0, w)
		s.harvest(p.sc, g-p.g0, g)
	}
	if s.left[b].Add(-1) == 0 {
		s.mu.Lock()
		s.mu.Unlock()
		s.freed.Signal()
	}
}

// harvest banks the final artifacts of window shard ws of wsc into the
// carry scratch as image shard gs. It runs on the worker that parsed
// ws, and touches only that shard's words and result entries.
func (s *streamWin) harvest(wsc *scratch, ws, gs int) {
	const shardWords = ShardBytes / 64
	ssc := s.carry
	w0, w1 := ws*shardWords, min((ws+1)*shardWords, len(wsc.valid.Words()))
	copy(ssc.valid.Words()[gs*shardWords:], wsc.valid.Words()[w0:w1])
	base := (gs - ws) * ShardBytes
	src, dst := &wsc.results[ws], &ssc.results[gs]
	dst.lane, dst.scalar, dst.restart = src.lane, src.scalar, src.restart
	dst.insns, ssc.check[gs] = src.insns, wsc.check[ws]
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

// await parses published shards on the caller, as worker 0, until
// buffer b's window has retired every shard. It sleeps only once every
// published shard is claimed, when each one left runs on a worker that
// will retire it.
func (s *streamWin) await(b int) {
	for s.left[b].Load() > 0 {
		if g, ok := s.claim(); ok {
			s.run(g, 0)
			continue
		}
		s.mu.Lock()
		for s.left[b].Load() > 0 {
			s.freed.Wait()
		}
		s.mu.Unlock()
	}
}

// stream reads the size-byte image from r window by window and parses
// it on k.workers workers into the carry scratch. It returns once no
// worker is left running, with a read error or the ctx error the parse
// saw: a done ctx leaves holes in the carry state, and then stream
// stops reading at the next window.
func (s *streamWin) stream(ctx context.Context, c *Checker, k *call, r io.Reader, carry *scratch, size int) (ctxErr, err error) {
	s.ctx, s.plan, s.carry = ctx, s, carry
	s.next.Store(0)
	s.publish(0, false)
	// An interrupted call may have left either count short of 0.
	s.left[0].Store(0)
	s.left[1].Store(0)
	s.freed.L = &s.mu
	s.last = 0
	if size > streamWindow {
		s.last = (size - streamWindow + streamSettle - 1) / streamSettle
	}
	s.start(1, k.workers)
	defer func() {
		s.publish(0, true)
		s.wg.Wait()
		// A pooled window keeps no reference into the call.
		s.ctx, s.carry, s.win = nil, nil, [2]stage1{}
	}()
	filled := 0
	for i := 0; i <= s.last; i++ {
		b := i & 1
		if i >= 2 {
			s.await(b)
		}
		// Carry the previous window's last shard over, then top the
		// buffer up, never reading past the declared size.
		base, buf := i*streamSettle, s.buf[b][:]
		have := 0
		if i > 0 {
			have = copy(buf, s.buf[b^1][streamSettle:filled])
		}
		filled = min(streamWindow, size-base)
		n, err := io.ReadFull(r, buf[have:filled])
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("core: reading stream at offset %d: %w", base+have+n, err)
		}
		if have+n < filled {
			return nil, fmt.Errorf("core: stream ended at %d bytes, %d declared", base+have+n, size)
		}
		// Publish the settled span: all but the last shard mid-stream,
		// the whole remainder in the last window. parseShardAt parses
		// [ws*ShardBytes, min(·, filled)); mid-stream that is exactly
		// the shard, and the walk past the span's end stays inside the
		// last shard (lookahead).
		span := streamSettle
		if i == s.last {
			span = filled
		}
		shards := shardCount(span)
		sc := &s.sc[b]
		sc.reset(filled, shards)
		sc.base, sc.imgSize = base, size
		s.win[b] = stage1{c: c, code: buf[:filled], sc: sc, engine: k.engine, fr: k.fr, frun: k.span.Run, g0: base / ShardBytes}
		s.left[b].Store(int32(shards))
		s.publish(base/ShardBytes+shards, false)
		// Every shard after a cancel is retired unparsed: stop reading.
		if ctx.Err() != nil {
			return ctx.Err(), nil
		}
	}
	s.await(s.last & 1)
	s.await(s.last&1 ^ 1)
	return ctx.Err(), nil
}

// VerifyReader streams an image from r through a bounded window and
// verifies it. opts.StreamSize must carry the total size (see its doc);
// when it is zero the stream is buffered whole in memory and verified
// by the ordinary path. The image is read into two 256 KiB window
// buffers in turn, one filling while the other's shards parse; the
// shards are parsed on opts.Workers stage-1 workers, the caller
// included, clamped to the image's shards and to one window's, and
// Report.Workers is that clamped count.
func (c *Checker) VerifyReader(r io.Reader, opts VerifyOptions) (*Report, error) {
	return c.VerifyReaderContext(context.Background(), r, opts)
}

// VerifyReaderContext is VerifyReader under a context; the stage-1
// workers observe cancellation between shards, and an interrupted run
// stops reading at the next window.
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
	if c.fused.lookahead() >= ShardBytes {
		// Impossible for the x86 grammars (instruction length is
		// bounded); reachable only through a degenerate custom bundle.
		return nil, fmt.Errorf("core: automaton lookahead %d reaches past a shard; stream verification unavailable", c.fused.lookahead())
	}
	size := int(opts.StreamSize)
	var st Stats
	k := c.begin(size, opts, &st)
	k.workers = clampWorkers(opts.Workers, min(k.shards, streamShards))

	// The carry state (absolute coordinates, full image) comes from the
	// ordinary pool.
	ssc := getScratch(size, k.shards)
	defer putScratch(ssc)
	win := streamWinPool.Get().(*streamWin)
	defer streamWinPool.Put(win)
	endStage1 := telemetry.Region(ctx, "rocksalt.stage1.parse")
	ctxErr, err := win.stream(ctx, c, &k, r, ssc, size)
	endStage1()
	if err != nil {
		return nil, err
	}
	st.Stage1Wall = time.Since(k.t0)
	if ctxErr == nil {
		// A stream longer than declared would silently verify a prefix;
		// probe one byte to reject it.
		if n, _ := io.ReadFull(r, win.probe[:]); n > 0 {
			return nil, fmt.Errorf("core: stream continues past the declared %d bytes", size)
		}
	}
	rep := c.report(c.finish(ctx, &k, ctxErr, nil, ssc, nil, &st), size)
	rep.Stats = st
	return rep, nil
}
