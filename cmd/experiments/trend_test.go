package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func writeBench(t *testing.T, dir, name, body string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// strideDoc renders a minimal BENCH_stride.json with the given fused
// throughput and timestamp.
func strideDoc(stamp string, fusedMBs, warm float64) string {
	return fmt.Sprintf(`{
  "quick": false,
  "host": {"cpu_model": "TestCPU", "num_cpu": 1, "goos": "linux", "goarch": "amd64", "timestamp": %q},
  "results": [
    {"name": "fused (default)", "mb_per_s": %g},
    {"name": "reference", "mb_per_s": 100}
  ],
  "warm_rehash_speedup": %g
}`, stamp, fusedMBs, warm)
}

// TestTrendDetectsInjectedRegression: two points on the same host where
// the newer one lost >10% fused throughput must flag exactly that
// series.
func TestTrendDetectsInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	// History lives beside the current file under distinct names — the
	// collector matches any BENCH_*.json.
	writeBench(t, dir, "BENCH_stride.json", strideDoc("2026-08-07T10:00:00Z", 250, 3.0))
	old := filepath.Join(dir, "history")
	if err := os.Mkdir(old, 0o755); err != nil {
		t.Fatal(err)
	}
	writeBench(t, old, "BENCH_stride.json", strideDoc("2026-08-01T10:00:00Z", 360, 3.9))

	points, err := collectBench(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("parsed %d points, want 2", len(points))
	}
	rows := judgeTrend(points, 0.10)
	got := map[string]bool{}
	for _, r := range rows {
		if !r.HasPrev {
			t.Errorf("%s: expected two points, got single", r.Metric)
		}
		got[r.Metric] = r.Regressed
	}
	// fused dropped 360 -> 250 (-31%): regression. warm 3.9 -> 3.0
	// (-23%): regression.
	for metric, want := range map[string]bool{
		"fused_mb_per_s":     true,
		"warm_cache_speedup": true,
	} {
		if got[metric] != want {
			t.Errorf("%s regressed = %v, want %v (rows %+v)", metric, got[metric], want, rows)
		}
	}
}

// TestTrendOverheadMetricAbsoluteMargin: overhead percentages are
// judged by absolute points, so a swing inside the margin around zero
// never trips the gate, and a real blowup does.
func TestTrendOverheadMetricAbsoluteMargin(t *testing.T) {
	obsvDoc := func(stamp string, overhead, recorder float64) string {
		return fmt.Sprintf(`{
  "quick": false,
  "host": {"cpu_model": "TestCPU", "num_cpu": 1, "goos": "linux", "goarch": "amd64", "timestamp": %q},
  "overhead_pct": %g,
  "recorder_overhead_pct": %g
}`, stamp, overhead, recorder)
	}
	dir := t.TempDir()
	writeBench(t, dir, "BENCH_obsv.json", obsvDoc("2026-08-07T10:00:00Z", 1.5, 9.0))
	sub := filepath.Join(dir, "history")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	writeBench(t, sub, "BENCH_obsv.json", obsvDoc("2026-08-01T10:00:00Z", -0.9, 2.1))

	points, err := collectBench(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows := judgeTrend(points, 0.10)
	got := map[string]bool{}
	for _, r := range rows {
		got[r.Metric] = r.Regressed
	}
	// telemetry: -0.9 -> 1.5 is +2.4 pts, inside the 3-pt margin.
	// recorder: 2.1 -> 9.0 is +6.9 pts, a real regression.
	if got["telemetry_overhead_pct"] {
		t.Error("telemetry overhead swing inside the margin flagged as regression")
	}
	if !got["recorder_overhead_pct"] {
		t.Error("recorder overhead blowup not flagged")
	}
}

// TestTrendSkipsQuickAndForeignHosts: quick points are excluded from
// series, and points from different hosts never judge each other.
func TestTrendSkipsQuickAndForeignHosts(t *testing.T) {
	dir := t.TempDir()
	writeBench(t, dir, "BENCH_stride.json", strideDoc("2026-08-07T10:00:00Z", 250, 3.0))
	sub := filepath.Join(dir, "a")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	// Quick point with a huge number: must not become the baseline.
	quick := `{
  "quick": true,
  "host": {"cpu_model": "TestCPU", "num_cpu": 1, "goos": "linux", "goarch": "amd64", "timestamp": "2026-08-01T10:00:00Z"},
  "results": [{"name": "fused (default)", "mb_per_s": 9000}],
  "warm_rehash_speedup": 99
}`
	writeBench(t, sub, "BENCH_stride.json", quick)
	// Same metrics from a different host: separate series.
	foreign := `{
  "quick": false,
  "host": {"cpu_model": "OtherCPU", "num_cpu": 64, "goos": "linux", "goarch": "arm64", "timestamp": "2026-08-02T10:00:00Z"},
  "results": [{"name": "fused (default)", "mb_per_s": 8000}],
  "warm_rehash_speedup": 50
}`
	sub2 := filepath.Join(dir, "b")
	if err := os.Mkdir(sub2, 0o755); err != nil {
		t.Fatal(err)
	}
	writeBench(t, sub2, "BENCH_stride.json", foreign)

	points, err := collectBench(dir)
	if err != nil {
		t.Fatal(err)
	}
	rows := judgeTrend(points, 0.10)
	for _, r := range rows {
		if r.Regressed {
			t.Errorf("%s on %s flagged: quick or foreign points leaked into the series", r.Metric, r.HostKey)
		}
		if r.HasPrev {
			t.Errorf("%s on %s has a previous point; each host should have exactly one", r.Metric, r.HostKey)
		}
	}
}

// TestTrendPassesOnRepoBenchSet is the self-check the CI gate relies
// on: the committed BENCH files must parse and pass.
func TestTrendPassesOnRepoBenchSet(t *testing.T) {
	root := findModuleRoot()
	if root == "" {
		t.Skip("module root not found")
	}
	points, err := collectBench(root)
	if err != nil {
		t.Fatalf("committed BENCH set does not parse: %v", err)
	}
	if len(points) == 0 {
		t.Fatal("no BENCH files found in the repository")
	}
	for _, r := range judgeTrend(points, 0.10) {
		if r.Regressed {
			t.Errorf("committed BENCH set carries a regression: %s", r.RegressMsg)
		}
	}
}
