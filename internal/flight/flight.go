// Package flight is the engine's flight recorder: a preallocated,
// lock-free ring of structured span/event records threaded through the
// verification pipeline (run → stage-1 shard → reconcile → jump check →
// cache store). It exists to answer two operational questions the
// aggregate counters in internal/telemetry cannot: "where did this
// run's time go?" (exported as a Chrome trace-event timeline, see
// chrome.go) and "what was the engine doing just before it rejected,
// faulted or was abandoned?" (snapshotted into a postmortem bundle, see
// postmortem.go).
//
// The design contract mirrors telemetry's: with no recorder installed
// the hot path pays one atomic pointer load per run (Active), and with
// one installed, recording an event is a clock read plus six atomic
// stores into a preallocated ring — no allocation, no lock, no channel —
// so Verify keeps its zero-allocs-per-op guarantee either way and the
// recorder-on overhead stays low-single-digit percent (measured by
// cmd/experiments -run obsv).
//
// Concurrency: writers are the stage-1 shard workers plus the
// orchestrating goroutine. Each event is published under a per-slot
// sequence word (a seqlock): the writer stores an odd sequence, the
// payload words, then the even sequence; Snapshot re-reads the sequence
// around the payload and discards torn or in-flight slots. Every word
// is an atomic.Uint64, so the scheme is race-detector-clean — there is
// no non-atomic shared memory at all. A reader never blocks a writer
// and vice versa; under extreme wraparound a slot can in principle be
// accepted with mixed payloads from two writers that raced through a
// full ring generation, which corrupts at most that one record's
// fields (they are plain integers — never memory-unsafe) and is
// rejected by the kind-range check when the kind byte is garbled.
package flight

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Kind classifies one recorded event. Span* kinds carry a duration
// (they render as slices on the trace timeline); Event* kinds are
// instants.
type Kind uint8

const (
	// KindInvalid is the zero value; Snapshot discards it (an unwritten
	// or torn slot).
	KindInvalid Kind = iota
	// SpanRun covers one whole verification run, entry to verdict.
	SpanRun
	// SpanShard covers one stage-1 shard parse; Shard is the shard
	// index and Engine the stepper that actually parsed it.
	SpanShard
	// SpanReconcile covers stage 2 (merge, jump validation, bundle
	// coverage, sort).
	SpanReconcile
	// SpanJumps covers the jump-target validation section inside
	// reconcile; Bytes carries the number of bad targets found.
	SpanJumps
	// SpanCacheStore covers banking parse artifacts into the verdict
	// cache (chunk entries after stage 1, or the whole-image Report).
	SpanCacheStore
	// SpanDelta covers one VerifyDelta reconciliation round, dirty-set
	// computation to verdict; Bytes carries the bytes re-parsed.
	SpanDelta
	// EventSWARBackoff marks a shard whose SWAR multi-byte parse hit
	// the density backoff and was re-parsed by the single-stride lanes.
	EventSWARBackoff
	// EventChunkHit / EventChunkMiss mark one cacheable 64 KiB chunk
	// restored from, respectively missing from, the chunk cache.
	EventChunkHit
	EventChunkMiss
	// EventCacheServe marks a Verify answered entirely from the
	// whole-image verdict cache (no byte was scanned).
	EventCacheServe
	// EventChunkReplay marks one maximal run of consecutive chunks
	// replayed from retained delta state (their shards were skipped by a
	// VerifyDelta round): Shard is the run's first shard and Bytes its
	// length, so a round records one event per gap between its dirty
	// chunks rather than one per retained chunk.
	EventChunkReplay

	numKinds
)

var kindNames = [numKinds]string{
	"invalid", "run", "shard", "reconcile", "jumps", "cache-store", "delta",
	"swar-backoff", "chunk-hit", "chunk-miss", "cache-serve", "chunk-replay",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Span reports whether the kind carries a meaningful duration.
func (k Kind) Span() bool { return k >= SpanRun && k <= SpanDelta }

// MarshalJSON renders the kind as its name, so postmortem bundles are
// readable without this package's enum table.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Engine is the stage-1 stepper (or cache layer) an event is attributed
// to — the flight-recorder face of the Stats.Engine census.
type Engine uint8

const (
	EngineNone Engine = iota
	EngineLanes
	EngineSWAR
	EngineStrided
	EngineScalar
	EngineReference
	EngineCache

	numEngines
)

var engineNames = [numEngines]string{
	"", "lanes", "swar", "strided", "fused-scalar", "reference", "cache",
}

func (e Engine) String() string {
	if int(e) < len(engineNames) {
		return engineNames[e]
	}
	return fmt.Sprintf("engine(%d)", uint8(e))
}

// MarshalJSON renders the engine as its census name (or omits content
// for EngineNone — an empty string, matching Stats.Engine's omitempty).
func (e Engine) MarshalJSON() ([]byte, error) {
	return []byte(`"` + e.String() + `"`), nil
}

// Event is one recorded span or instant. Start and Dur are nanoseconds
// on the recorder's monotonic clock (Now); Bytes is kind-specific
// payload (bytes covered for spans, counts for some instants). The
// struct is all plain integers on purpose: it packs into five 64-bit
// ring words, so recording never touches a pointer and a torn record
// can never be memory-unsafe.
type Event struct {
	Kind   Kind   `json:"kind"`
	Engine Engine `json:"engine,omitempty"`
	Worker uint16 `json:"worker"`
	Shard  uint32 `json:"shard,omitempty"`
	Run    uint32 `json:"run"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// Ring geometry. Events are spread over numRings rings by worker ID, so
// concurrent shard workers contend on different pos words and slots;
// slotWords is one sequence word plus the five packed payload words.
const (
	numRings  = 8
	slotWords = 6
	// DefaultSlots is the per-ring capacity when NewRecorder is given
	// n <= 0: 8 rings × 2048 slots ≈ 16k events ≈ 770 KiB, enough for
	// ~100 runs of a 2 MB image (one span per 16 KiB shard plus a few
	// run-level records) before the oldest wrap away.
	DefaultSlots = 2048
)

// ring is one independently-positioned event ring. The pad keeps the
// hot pos words of adjacent rings on distinct cache lines.
type ring struct {
	pos atomic.Uint64
	_   [7]uint64
	w   []atomic.Uint64
}

// Recorder is a fixed-size flight recorder. All methods are safe for
// concurrent use; Record never allocates and never blocks.
type Recorder struct {
	rings [numRings]ring
	slots uint64
	runs  atomic.Uint32
	epoch time.Time
}

// NewRecorder returns a recorder with the given per-ring slot count
// (DefaultSlots when n <= 0). All memory is allocated here, up front.
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultSlots
	}
	r := &Recorder{slots: uint64(n), epoch: time.Now()}
	for i := range r.rings {
		r.rings[i].w = make([]atomic.Uint64, n*slotWords)
	}
	return r
}

// Now returns nanoseconds since the recorder's epoch on the monotonic
// clock. It is the timebase of every Event.Start.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// BeginRun allocates the next run ID, correlating all of one
// verification run's events.
func (r *Recorder) BeginRun() uint32 { return r.runs.Add(1) }

// Record publishes one event into the ring selected by its worker ID,
// overwriting the oldest record there. Cost: one atomic add for the
// ticket plus six atomic stores; no allocation, no lock.
func (r *Recorder) Record(ev Event) {
	rg := &r.rings[uint64(ev.Worker)%numRings]
	i := rg.pos.Add(1) - 1
	w := rg.w[(i%r.slots)*slotWords:]
	w[0].Store(2*i + 1) // odd: write in flight
	w[1].Store(uint64(ev.Kind) | uint64(ev.Engine)<<8 | uint64(ev.Worker)<<16 | uint64(ev.Shard)<<32)
	w[2].Store(uint64(ev.Start))
	w[3].Store(uint64(ev.Dur))
	w[4].Store(uint64(ev.Bytes))
	w[5].Store(uint64(ev.Run))
	w[0].Store(2*i + 2) // even: published
}

// Snapshot copies every currently-published event out of the rings,
// discarding unwritten, in-flight and torn slots, and returns them
// sorted by start time. It is safe to call while writers are active —
// the postmortem path does exactly that — at the cost of possibly
// missing the records being written that instant.
func (r *Recorder) Snapshot() []Event {
	var out []Event
	for ri := range r.rings {
		rg := &r.rings[ri]
		for s := uint64(0); s < r.slots; s++ {
			w := rg.w[s*slotWords:]
			s1 := w[0].Load()
			if s1 == 0 || s1%2 == 1 {
				continue
			}
			p1, p2, p3, p4, p5 := w[1].Load(), w[2].Load(), w[3].Load(), w[4].Load(), w[5].Load()
			if w[0].Load() != s1 {
				continue // torn: a writer replaced the slot mid-read
			}
			ev := Event{
				Kind:   Kind(p1 & 0xff),
				Engine: Engine(p1 >> 8 & 0xff),
				Worker: uint16(p1 >> 16),
				Shard:  uint32(p1 >> 32),
				Run:    uint32(p5),
				Start:  int64(p2),
				Dur:    int64(p3),
				Bytes:  int64(p4),
			}
			if ev.Kind == KindInvalid || ev.Kind >= numKinds || ev.Engine >= numEngines {
				continue
			}
			out = append(out, ev)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// global is the process-wide recorder the engine consults (one atomic
// pointer load per run when unset — the whole cost of the feature being
// compiled in).
var global atomic.Pointer[Recorder]

// SetGlobal installs (or, with nil, removes) the process-wide recorder.
func SetGlobal(r *Recorder) { global.Store(r) }

// Active returns the process-wide recorder, or nil when none is
// installed.
func Active() *Recorder { return global.Load() }
