package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestGaugeStoreBypassesGate pins the Store contract: unlike Set, it
// writes regardless of the enable gate, so identity gauges (build_info)
// registered before SetEnabled are scrapeable immediately.
func TestGaugeStoreBypassesGate(t *testing.T) {
	prev := Enabled()
	SetEnabled(false)
	t.Cleanup(func() { SetEnabled(prev) })
	r := NewRegistry()
	g := r.NewGauge("test_store_info", "store test")
	g.Set(7)
	if g.Value() != 0 {
		t.Fatalf("gated Set wrote while disabled: %d", g.Value())
	}
	g.Store(1)
	if g.Value() != 1 {
		t.Fatalf("Store invisible while disabled: %d", g.Value())
	}
}

// TestLabeledGaugeExposition covers the multi-pair label path used by
// rocksalt_build_info: several label pairs render in order, and the
// value escaping survives a scrape — quote, backslash and newline are
// exactly the characters the Prometheus text format requires escaped.
func TestLabeledGaugeExposition(t *testing.T) {
	r := NewRegistry()
	g := r.NewLabeledGauge("test_build_info", "identity",
		"bundle", "RSLT4",
		"policy", `sha"with\quirks`+"\n",
		"go", "go1.24")
	g.Store(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	want := `test_build_info{bundle="RSLT4",policy="sha\"with\\quirks\n",go="go1.24"} 1`
	if !strings.Contains(text, want) {
		t.Errorf("exposition missing %q:\n%s", want, text)
	}
	if v, ok := r.Value(`test_build_info{bundle="RSLT4",policy="sha\"with\\quirks\n",go="go1.24"}`); !ok || v != 1 {
		t.Errorf("Value lookup = %d,%v, want 1,true", v, ok)
	}
}

// TestRenderLabelsPanics pins the registration-time validation: label
// arguments must be non-empty (label, value) pairs.
func TestRenderLabelsPanics(t *testing.T) {
	for _, pairs := range [][]string{{}, {"only-label"}, {"a", "1", "dangling"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("renderLabels(%q) did not panic", pairs)
				}
			}()
			renderLabels(pairs)
		}()
	}
}

// TestLabeledHistogramExposition covers the labeled-histogram render
// path added for the per-stage/per-engine latency families: the label
// set merges into every bucket line ahead of le, and sum/count carry
// the label set too — and the numbers round-trip through the text.
func TestLabeledHistogramExposition(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	h1 := r.NewLabeledHistogram("test_stage_ns", "per stage", "stage", "stage1")
	h2 := r.NewLabeledHistogram("test_stage_ns", "per stage", "stage", "jumps")
	h1.Observe(3) // bucket 2, le 4
	h1.Observe(3)
	h2.Observe(100) // bucket 7, le 128
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`test_stage_ns_bucket{stage="stage1",le="4"} 2`,
		`test_stage_ns_bucket{stage="stage1",le="+Inf"} 2`,
		`test_stage_ns_sum{stage="stage1"} 6`,
		`test_stage_ns_count{stage="stage1"} 2`,
		`test_stage_ns_bucket{stage="jumps",le="128"} 1`,
		`test_stage_ns_sum{stage="jumps"} 100`,
		`test_stage_ns_count{stage="jumps"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Count(text, "# TYPE test_stage_ns histogram") != 1 {
		t.Errorf("family must have exactly one TYPE line:\n%s", text)
	}
}

// TestPrometheusCumulativeBuckets verifies bucket counts are cumulative
// across the le bounds, per the exposition format, not per-bucket.
func TestPrometheusCumulativeBuckets(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	h := r.NewHistogram("test_cum_ns", "cumulative")
	h.Observe(1)   // bucket 1, le 2
	h.Observe(3)   // bucket 2, le 4
	h.Observe(100) // bucket 7, le 128
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`test_cum_ns_bucket{le="2"} 1`,
		`test_cum_ns_bucket{le="4"} 2`,
		`test_cum_ns_bucket{le="128"} 3`,
		`test_cum_ns_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestExpvarSnapshotShapes covers the /debug/vars render: unlabeled and
// labeled series keyed by full name, histograms as {count, sum}.
func TestExpvarSnapshotShapes(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	r.NewCounter("test_ev_total", "c").Add(4)
	r.NewLabeledGauge("test_ev_info", "g", "k", "v").Store(1)
	h := r.NewLabeledHistogram("test_ev_ns", "h", "stage", "s1")
	h.Observe(10)
	h.Observe(20)
	snap := r.expvarSnapshot()
	if got := snap["test_ev_total"]; got != int64(4) {
		t.Errorf("counter snapshot = %v, want 4", got)
	}
	if got := snap[`test_ev_info{k="v"}`]; got != int64(1) {
		t.Errorf("labeled gauge snapshot = %v, want 1", got)
	}
	hv, ok := snap[`test_ev_ns{stage="s1"}`].(map[string]int64)
	if !ok || hv["count"] != 2 || hv["sum"] != 30 {
		t.Errorf("histogram snapshot = %v, want {count:2 sum:30}", snap[`test_ev_ns{stage="s1"}`])
	}
}

// TestHandlerServesLabeledFamilies is the end-to-end scrape: the mux's
// /metrics endpoint carries the labeled histogram and gauge series with
// the Prometheus content type, and /debug/pprof/ serves its index.
func TestHandlerServesLabeledFamilies(t *testing.T) {
	withEnabled(t)
	r := NewRegistry()
	r.NewLabeledGauge("test_srv_info", "identity", "bundle", "RSLT4").Store(1)
	r.NewLabeledHistogram("test_srv_ns", "latency", "engine", "swar").Observe(42)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	body := sb.String()
	for _, want := range []string{
		`test_srv_info{bundle="RSLT4"} 1`,
		`test_srv_ns_count{engine="swar"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	idx, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Body.Close()
	if idx.StatusCode != 200 {
		t.Errorf("/debug/pprof/ status = %d, want 200", idx.StatusCode)
	}

	vresp, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
}
