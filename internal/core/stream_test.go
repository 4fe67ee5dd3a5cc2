package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/flight"
	"rocksalt/internal/nacl"
)

// streamEqual asserts a streaming report matches the in-memory one on
// everything except Window: the bounded window cannot always keep the
// bytes around a violation resident (stage-2 violations carry no
// excerpt at all, and shard-local ones within the automaton lookahead
// of a chunk start clip at the window seam), so the contract is
// identical verdict, offsets, kinds and details.
func streamEqual(t *testing.T, got, want *core.Report, what string) {
	t.Helper()
	if got.Safe != want.Safe || got.Outcome != want.Outcome || got.Total != want.Total ||
		got.Size != want.Size || got.Shards != want.Shards {
		t.Fatalf("%s: verdict differs: got {safe %v %v total %d} want {safe %v %v total %d}",
			what, got.Safe, got.Outcome, got.Total, want.Safe, want.Outcome, want.Total)
	}
	if len(got.Violations) != len(want.Violations) {
		t.Fatalf("%s: %d violations, want %d", what, len(got.Violations), len(want.Violations))
	}
	for i := range got.Violations {
		g, w := got.Violations[i], want.Violations[i]
		if g.Offset != w.Offset || g.Kind != w.Kind || g.Detail != w.Detail {
			t.Fatalf("%s: violation %d differs:\nstream: %+v\nmemory: %+v", what, i, g, w)
		}
	}
}

// streamWindow and streamSettle are the streaming verifier's window
// geometry: a window buffer's length, and the span each mid-stream
// window settles before the next one starts.
const (
	streamWindow = core.StreamWindow
	streamSettle = core.StreamSettle
)

// streamTiles repeats a compliant tile, padded to a chunk multiple,
// until the image spans at least n bytes (direct-jump displacements are
// relative, so each copy's targets stay inside it).
func streamTiles(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	tile := cacheImage(t, seed, 60000)
	tile = append(tile, bytes.Repeat([]byte{0x90}, (deltaChunk-len(tile)%deltaChunk)%deltaChunk)...)
	return bytes.Repeat(tile, (n+len(tile)-1)/len(tile))
}

// streamWorkers is the worker count VerifyReader reports: the request
// (0 meaning GOMAXPROCS) clamped to the image's shards and to one
// window's.
func streamWorkers(req, shards int) int {
	if req <= 0 {
		req = runtime.GOMAXPROCS(0)
	}
	return min(req, shards, streamWindow/core.ShardBytes)
}

// TestVerifyReaderMatchesVerify: the bounded-window streaming verifier
// agrees with the in-memory one across the window geometries — images
// smaller than one chunk, exactly one settled span, exactly the window,
// one byte past it, spanning many windows — on both compliant and
// corrupted inputs, at every worker count, and reports the clamped
// worker count.
func TestVerifyReaderMatchesVerify(t *testing.T) {
	c := checker(t)
	big := streamTiles(t, 10, 3*streamWindow+deltaChunk/2)
	images := map[string][]byte{
		"tiny":           big[:64],
		"one chunk":      big[:deltaChunk],
		"settled span":   big[:streamSettle],
		"exact window":   big[:streamWindow],
		"window plus 1":  big[:streamWindow+1],
		"multi-window":   big,
		"odd tail":       big[:2*streamWindow+12345],
		"two spans plus": big[:2*streamSettle+deltaChunk+3],
	}
	// Corrupted variants: flip bytes in every chunk so violations fall
	// in different windows.
	bad := append([]byte(nil), big...)
	for off := deltaChunk / 2; off < len(bad); off += deltaChunk {
		bad[off] ^= 0xff
	}
	images["corrupted"] = bad
	// Violations straddling the window seams: corrupt right at the end
	// of the first and second settled spans, where the window slides.
	seam := append([]byte(nil), big...)
	for _, off := range []int{streamSettle, 2 * streamSettle} {
		copy(seam[off-8:off+8], bytes.Repeat([]byte{0xff}, 16))
	}
	images["seam corruption"] = seam

	for name, img := range images {
		want := c.VerifyWith(img, core.VerifyOptions{Workers: 1})
		for _, w := range []int{1, 2, 0} {
			got, err := c.VerifyReader(bytes.NewReader(img), core.VerifyOptions{StreamSize: int64(len(img)), Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			what := fmt.Sprintf("%s workers=%d", name, w)
			streamEqual(t, got, want, what)
			if gs, ws := got.Stats.EngineInvariant(), want.Stats.EngineInvariant(); gs != ws {
				t.Fatalf("%s: stats diverged\nstream: %+v\nmemory: %+v", what, gs, ws)
			}
			if got.Workers != streamWorkers(w, got.Shards) {
				t.Fatalf("%s: streaming run reported %d workers, want %d", what, got.Workers, streamWorkers(w, got.Shards))
			}
		}
	}
}

// TestVerifyReaderSizeMismatch: a stream shorter or longer than the
// declared size is an error, never a verdict over the wrong bytes.
func TestVerifyReaderSizeMismatch(t *testing.T) {
	c := checker(t)
	img, err := nacl.NewGenerator(11).Random(2000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.VerifyReader(bytes.NewReader(img), core.VerifyOptions{StreamSize: int64(len(img)) + 10}); err == nil ||
		!strings.Contains(err.Error(), "stream ended") {
		t.Fatalf("short stream: got %v", err)
	}
	if _, err := c.VerifyReader(bytes.NewReader(img), core.VerifyOptions{StreamSize: int64(len(img)) - 10}); err == nil ||
		!strings.Contains(err.Error(), "continues past") {
		t.Fatalf("long stream: got %v", err)
	}
	if _, err := c.VerifyReader(bytes.NewReader(img), core.VerifyOptions{StreamSize: 1 << 31}); err == nil {
		t.Fatal("2 GiB stream size accepted")
	}
}

// TestVerifyReaderZeroSizeFallback: StreamSize 0 buffers the stream
// and takes the ordinary path — reports then match in full, Windows
// included.
func TestVerifyReaderZeroSizeFallback(t *testing.T) {
	c := checker(t)
	img, err := nacl.NewGenerator(12).Random(2000)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0xff
	want := c.VerifyWith(img, core.VerifyOptions{})
	got, err := c.VerifyReader(bytes.NewReader(img), core.VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameVerdict(t, got, want, "zero-size fallback")
}

// TestVerifyReaderCanceled: cancellation between window chunks yields
// the usual interrupted report, not an error or partial verdict.
func TestVerifyReaderCanceled(t *testing.T) {
	c := checker(t)
	img := cacheImage(t, 13, 60000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := c.VerifyReaderContext(ctx, bytes.NewReader(img), core.VerifyOptions{StreamSize: int64(len(img))})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != core.OutcomeCanceled || !rep.Interrupted() {
		t.Fatalf("canceled stream reported %v", rep.Outcome)
	}
	if len(rep.Violations) != 0 {
		t.Fatal("interrupted streaming run carried partial violations")
	}
}

// TestVerifyReaderCanceledMidWindow: a cancel that lands while a
// window's shards are in flight — in a middle window, and in the final
// window, whose skipped shards would otherwise go straight to
// reconcile — yields the interrupted report, never Safe and never the
// violations reached so far.
func TestVerifyReaderCanceledMidWindow(t *testing.T) {
	c := checker(t)
	img := streamTiles(t, 14, 3*streamWindow)
	img[100] ^= 0xff // a violation in the first window, already harvested
	shards := (len(img) + core.ShardBytes - 1) / core.ShardBytes
	// Windows start every streamSettle bytes; the final one is the first
	// that reaches the image end.
	final := (len(img) - streamWindow + streamSettle - 1) / streamSettle * streamSettle / core.ShardBytes
	cases := []struct {
		name  string
		shard int
	}{
		{"middle window", streamSettle/core.ShardBytes + 3},
		{"final window", final + 1},
	}
	if cases[1].shard >= shards-1 || cases[0].shard >= final {
		t.Fatalf("image too small for the window geometry: %d shards, final window at shard %d", shards, final)
	}
	for _, tc := range cases {
		for _, w := range []int{1, 2} {
			ctx, cancel := context.WithCancel(context.Background())
			var parsed atomic.Int32
			core.SetShardHook(func(shard int) {
				parsed.Add(1)
				if shard == tc.shard {
					cancel()
				}
			})
			rep, err := c.VerifyReaderContext(ctx, bytes.NewReader(img), core.VerifyOptions{StreamSize: int64(len(img)), Workers: w})
			core.SetShardHook(nil)
			cancel()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if rep.Safe || rep.Outcome != core.OutcomeCanceled || !rep.Interrupted() {
				t.Fatalf("%s workers=%d: canceled stream reported %v (safe %v)", tc.name, w, rep.Outcome, rep.Safe)
			}
			if len(rep.Violations) != 0 || rep.Total != 0 {
				t.Fatalf("%s workers=%d: interrupted stream carried %d partial violations", tc.name, w, len(rep.Violations))
			}
			if int(parsed.Load()) >= shards {
				t.Fatalf("%s workers=%d: cancellation did not stop stage 1 early (%d/%d shards parsed)",
					tc.name, w, parsed.Load(), shards)
			}
		}
	}
}

// failingReader serves r and then, instead of its EOF, err; before it
// fails it runs failing once.
type failingReader struct {
	r       io.Reader
	err     error
	failing func()
}

func (f *failingReader) Read(b []byte) (int, error) {
	n, err := f.r.Read(b)
	if err != io.EOF {
		return n, err
	}
	if f.failing != nil {
		f.failing()
		f.failing = nil
	}
	return 0, f.err
}

// TestVerifyReaderDrainsOnError: a stream that fails inside a window,
// with a read error or by ending short, returns its error only once
// every shard in flight has finished, so the window memory goes back to
// its pool with no worker still reading it, and following calls on the
// same checker match VerifyWith, over one window (which must not wait on
// the failed call's counts) and over the whole image. At two workers the caller reads window 1 while the pool's
// other worker parses window 0; the shard hook holds that worker in
// image shard 0 until the failing read has started a goroutine to
// release it. Shard 0's flight span, recorded as its parse ends, must
// be there when VerifyReader returns; under -race, a window handed back
// while the shard still reads it is a data race with the following
// call's reads. A third stream fails in window 2, after the caller has
// begun to parse, with nothing held.
func TestVerifyReaderDrainsOnError(t *testing.T) {
	c := checker(t)
	img := streamTiles(t, 16, 3*streamWindow)
	for _, tc := range []struct {
		name   string
		err    error
		msg    string
		failAt int
		hold   bool
	}{
		{"read error", errors.New("device gone"), "device gone", streamWindow + streamSettle/2, true},
		{"short stream", io.EOF, "stream ended", streamWindow + streamSettle/2, true},
		{"read error in window 2", errors.New("device gone"), "device gone", 2*streamSettle + streamWindow/2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := flight.NewRecorder(0)
			flight.SetGlobal(fr)
			defer flight.SetGlobal(nil)
			r := &failingReader{r: bytes.NewReader(img[:tc.failAt]), err: tc.err}
			if tc.hold {
				entered, release := make(chan struct{}), make(chan struct{})
				core.SetShardHook(func(shard int) {
					if shard == 0 {
						close(entered)
						<-release
					}
				})
				defer core.SetShardHook(nil)
				r.failing = func() {
					<-entered
					go close(release)
				}
			}
			rep, err := c.VerifyReader(r, core.VerifyOptions{StreamSize: int64(len(img)), Workers: 2})
			if err == nil || !strings.Contains(err.Error(), tc.msg) || rep != nil {
				t.Fatalf("got report %v, error %v; want an error naming %q", rep, err, tc.msg)
			}
			if !slices.ContainsFunc(fr.Snapshot(), func(ev flight.Event) bool {
				return ev.Kind == flight.SpanShard && ev.Shard == 0
			}) {
				t.Fatal("VerifyReader returned while shard 0 was still being parsed")
			}
			core.SetShardHook(nil)
			for _, next := range [][]byte{img[:streamSettle], img} {
				want := c.VerifyWith(next, core.VerifyOptions{Workers: 1})
				for _, w := range []int{1, 2} {
					got, err := c.VerifyReader(bytes.NewReader(next), core.VerifyOptions{StreamSize: int64(len(next)), Workers: w})
					if err != nil {
						t.Fatal(err)
					}
					streamEqual(t, got, want, fmt.Sprintf("%d-byte call after the failed one, workers=%d", len(next), w))
				}
			}
		})
	}
}

// maxStreamAllocs bounds a steady-state VerifyReader call at one
// worker: its Report. The window buffers, their pool, the one-byte
// probe past the declared size and both kinds of scratch are pooled
// and must not be among them.
const maxStreamAllocs = 1

// TestVerifyReaderAllocs pins the steady-state allocation behaviour of
// VerifyReader: after warm-up calls (which fill the pools), a call at
// one worker allocates at most maxStreamAllocs objects, and the same
// number for images of about 1 MiB and 8 MiB.
func TestVerifyReaderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the bound only holds in normal builds")
	}
	c := checker(t)
	var perSize []float64
	for _, n := range []int{1 << 20, 8 << 20} {
		img := streamTiles(t, 15, n)
		rd := bytes.NewReader(img)
		opts := core.VerifyOptions{StreamSize: int64(len(img)), Workers: 1}
		call := func() {
			rd.Reset(img)
			rep, err := c.VerifyReader(rd, opts)
			if err != nil || !rep.Safe {
				t.Fatalf("stream of %d bytes: safe=%v err=%v", len(img), rep != nil && rep.Safe, err)
			}
		}
		call()
		call()
		allocs := testing.AllocsPerRun(10, call)
		if allocs > maxStreamAllocs {
			t.Errorf("stream of %d bytes allocated %.1f times, want <= %d", n, allocs, maxStreamAllocs)
		}
		perSize = append(perSize, allocs)
	}
	if perSize[0] != perSize[1] {
		t.Errorf("stream allocations grow with the image: %v", perSize)
	}
}
