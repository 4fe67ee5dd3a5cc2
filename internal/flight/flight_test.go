package flight

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestRecordSnapshotRoundTrip(t *testing.T) {
	r := NewRecorder(64)
	run := r.BeginRun()
	events := []Event{
		{Kind: SpanRun, Engine: EngineLanes, Run: run, Start: 100, Dur: 900, Bytes: 1 << 20},
		{Kind: SpanShard, Engine: EngineReference, Worker: 3, Shard: 7, Run: run, Start: 150, Dur: 40, Bytes: 16384},
		{Kind: EventChunkReplay, Engine: EngineCache, Worker: 1, Shard: 2, Run: run, Start: 120},
	}
	for _, ev := range events {
		r.Record(ev)
	}
	got := r.Snapshot()
	if len(got) != len(events) {
		t.Fatalf("Snapshot returned %d events, want %d", len(got), len(events))
	}
	// Snapshot sorts by Start; re-key by kind for comparison.
	byKind := map[Kind]Event{}
	for _, ev := range got {
		byKind[ev.Kind] = ev
	}
	for _, want := range events {
		if byKind[want.Kind] != want {
			t.Errorf("round trip mismatch for %v:\n got %+v\nwant %+v", want.Kind, byKind[want.Kind], want)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].Start < got[i-1].Start {
			t.Fatalf("snapshot not sorted by start: %d after %d", got[i].Start, got[i-1].Start)
		}
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	r := NewRecorder(4)
	// 10 events from one worker land in one 4-slot ring: only the last
	// 4 survive.
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: SpanShard, Shard: uint32(i), Start: int64(i)})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("got %d events from a 4-slot ring, want 4", len(got))
	}
	for _, ev := range got {
		if ev.Shard < 6 {
			t.Errorf("event %d survived; the ring should keep only the newest 4", ev.Shard)
		}
	}
}

// TestConcurrentRecordSnapshot hammers the ring from several writers
// while snapshotting; under -race this is the proof the seqlock scheme
// has no data race, and in any build every surviving event must decode
// to values some writer actually stored.
func TestConcurrentRecordSnapshot(t *testing.T) {
	r := NewRecorder(128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Record(Event{Kind: SpanShard, Engine: EngineLanes, Worker: uint16(w),
					Shard: uint32(i & 0xffff), Start: int64(i), Dur: 7, Bytes: 16384})
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		for _, ev := range r.Snapshot() {
			if ev.Kind != SpanShard || ev.Engine != EngineLanes || ev.Dur != 7 || ev.Bytes != 16384 {
				t.Errorf("snapshot surfaced a corrupt event: %+v", ev)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder(64)
	ev := Event{Kind: SpanShard, Engine: EngineLanes, Worker: 2, Shard: 9, Start: 1, Dur: 2, Bytes: 3}
	allocs := testing.AllocsPerRun(200, func() {
		r.Record(ev)
	})
	if allocs != 0 {
		t.Errorf("Record allocated %.1f times per call, want 0", allocs)
	}
}

func TestChromeTraceShape(t *testing.T) {
	events := []Event{
		{Kind: SpanRun, Engine: EngineLanes, Run: 1, Start: 1000, Dur: 5000, Bytes: 1 << 20},
		{Kind: SpanShard, Engine: EngineLanes, Worker: 2, Shard: 3, Run: 1, Start: 1200, Dur: 300},
		{Kind: EventChunkReplay, Engine: EngineCache, Run: 1, Start: 1100, Bytes: 65536},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Args struct {
				Engine string `json:"engine"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(doc.TraceEvents))
	}
	phases := map[string]string{}
	for _, te := range doc.TraceEvents {
		phases[te.Name] = te.Ph
		if te.Pid != 1 {
			t.Errorf("event %s: pid %d, want 1", te.Name, te.Pid)
		}
	}
	if phases["run"] != "X" || phases["shard"] != "X" {
		t.Errorf("span kinds must be complete (X) events, got %v", phases)
	}
	if phases["chunk-replay"] != "i" {
		t.Errorf("instant kinds must be instant (i) events, got %v", phases)
	}
	for _, te := range doc.TraceEvents {
		if te.Name == "shard" {
			if te.Ts != 1.2 || te.Dur != 0.3 || te.Tid != 2 || te.Args.Engine != "lanes" {
				t.Errorf("shard event rendered wrong: %+v", te)
			}
		}
	}
}

func TestWritePostmortem(t *testing.T) {
	dir := t.TempDir()
	pm := &Postmortem{
		Reason:            "rejected",
		Detail:            "illegal instruction at 0x40",
		PolicyFingerprint: "deadbeef",
		TableBundle:       "RSLT4",
		Spans: []Event{
			{Kind: SpanShard, Engine: EngineLanes, Shard: 0, Start: 10, Dur: 20},
			{Kind: SpanShard, Engine: EngineReference, Shard: 1, Start: 30, Dur: 40},
			{Kind: EventCacheServe, Engine: EngineCache, Start: 50},
		},
	}
	path, err := WritePostmortem(dir, pm)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || !strings.Contains(filepath.Base(path), "rejected") {
		t.Fatalf("unexpected bundle path %q", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if got["reason"] != "rejected" || got["policy_fingerprint"] != "deadbeef" || got["table_bundle"] != "RSLT4" {
		t.Errorf("bundle identity fields wrong: %v", got)
	}
	census, _ := got["engine_census"].(map[string]any)
	if census["lanes"] != 1.0 || census["reference"] != 1.0 || census["cache"] != 1.0 {
		t.Errorf("engine census wrong: %v", census)
	}
	if spans, _ := got["spans"].([]any); len(spans) != 3 {
		t.Errorf("bundle has %d spans, want 3", len(got["spans"].([]any)))
	}
	if got["time"] == "" {
		t.Error("bundle time not filled in")
	}
	// A second bundle in the same second must not collide.
	if _, err := WritePostmortem(dir, &Postmortem{Reason: "rejected"}); err != nil {
		t.Fatalf("second bundle: %v", err)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 2 {
		t.Fatalf("postmortem dir has %d files, want 2", len(ents))
	}
}

func TestGlobalRecorder(t *testing.T) {
	if Active() != nil {
		t.Fatal("no recorder should be active at test start")
	}
	r := NewRecorder(8)
	SetGlobal(r)
	defer SetGlobal(nil)
	if Active() != r {
		t.Fatal("Active did not return the installed recorder")
	}
}
