package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The perf-trend observatory: -run trend walks the tree for
// BENCH_*.json files (the current set plus any archived copies, e.g. a
// bench-history/ directory of past runs), extracts the tracked
// headline metrics, groups them by host so a laptop run never judges a
// CI run, and fails when the newest point regresses against the best
// earlier point for the same (host, metric). With a single point per
// series — the normal state of a fresh checkout — there is nothing to
// compare and the gate passes; history accumulates wherever copies of
// the BENCH files are kept.

var trendThreshold = flag.Float64("trend-threshold", 0.10,
	"relative regression tolerance for throughput-style trend metrics (0.10 = 10%)")

// overheadMarginPts is the absolute tolerance, in percentage points,
// for overhead-style metrics (values near zero make relative
// thresholds meaningless).
const overheadMarginPts = 3.0

// trendMetric describes one tracked headline series.
type trendMetric struct {
	name string
	// higherBetter: regression = drop below best*(1-threshold).
	// !higherBetter (overhead percentages): regression = rise above
	// best + overheadMarginPts.
	higherBetter bool
}

// trackedMetrics is the observatory's contract: the headline numbers
// the repo promises not to silently lose.
var trackedMetrics = []trendMetric{
	{"fused_mb_per_s", true},
	{"warm_cache_speedup", true},
	{"telemetry_overhead_pct", false},
	{"recorder_overhead_pct", false},
	{"delta_speedup", true},
}

// benchPoint is one parsed BENCH file: where it came from, which host
// produced it, when, and the tracked metrics it contained.
type benchPoint struct {
	Path    string
	Bench   string // "stride", "obsv", ...
	HostKey string
	Stamp   string // RFC3339 from host.timestamp; file mtime fallback
	Quick   bool
	Metrics map[string]float64
}

// collectBench walks root for BENCH_*.json files (skipping .git and
// per-package testdata fixtures) and parses each into a benchPoint.
// Files with no tracked metrics are dropped; malformed JSON is an
// error — a corrupt bench artifact should fail the gate loudly, not
// vanish from the table.
func collectBench(root string) ([]benchPoint, error) {
	var points []benchPoint
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasPrefix(name, "BENCH_") || !strings.HasSuffix(name, ".json") {
			return nil
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		p, perr := parseBench(path, name, data)
		if perr != nil {
			return fmt.Errorf("%s: %v", path, perr)
		}
		if len(p.Metrics) > 0 {
			points = append(points, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range points {
		if points[i].Stamp == "" {
			if fi, err := os.Stat(points[i].Path); err == nil {
				points[i].Stamp = fi.ModTime().UTC().Format("2006-01-02T15:04:05Z")
			}
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Stamp < points[j].Stamp })
	return points, nil
}

// parseBench extracts the tracked metrics from one BENCH file. The
// extraction is by bench kind (the filename suffix), mirroring each
// experiment's output schema.
func parseBench(path, name string, data []byte) (benchPoint, error) {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return benchPoint{}, err
	}
	p := benchPoint{
		Path:    path,
		Bench:   strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_"), ".json"),
		Metrics: map[string]float64{},
	}
	p.Quick, _ = doc["quick"].(bool)
	if host, ok := doc["host"].(map[string]any); ok {
		str := func(k string) string { s, _ := host[k].(string); return s }
		p.HostKey = fmt.Sprintf("%s|%v|%s|%s", str("cpu_model"), host["num_cpu"], str("goos"), str("goarch"))
		p.Stamp = str("timestamp")
	} else {
		p.HostKey = "unknown"
	}
	num := func(k string) (float64, bool) { v, ok := doc[k].(float64); return v, ok }
	switch p.Bench {
	case "stride":
		if results, ok := doc["results"].([]any); ok {
			for _, r := range results {
				row, ok := r.(map[string]any)
				if !ok {
					continue
				}
				rname, _ := row["name"].(string)
				mbs, ok := row["mb_per_s"].(float64)
				if !ok {
					continue
				}
				if rname == "fused (default)" {
					p.Metrics["fused_mb_per_s"] = mbs
				}
			}
		}
		if v, ok := num("warm_rehash_speedup"); ok {
			p.Metrics["warm_cache_speedup"] = v
		}
	case "delta":
		if v, ok := num("delta_speedup"); ok {
			p.Metrics["delta_speedup"] = v
		}
	case "obsv":
		if v, ok := num("overhead_pct"); ok {
			p.Metrics["telemetry_overhead_pct"] = v
		}
		if v, ok := num("recorder_overhead_pct"); ok {
			p.Metrics["recorder_overhead_pct"] = v
		}
	}
	return p, nil
}

// trendRow is one (host, metric) series judged: its points in time
// order, the best previous value, the latest, and the verdict.
type trendRow struct {
	HostKey    string
	Metric     string
	Points     []float64
	Stamps     []string
	Latest     float64
	BestPrev   float64
	HasPrev    bool
	Regressed  bool
	RegressMsg string
}

// judgeTrend folds points into per-(host, metric) series and flags
// regressions of the latest point against the best earlier one. Quick
// points are excluded: CI smoke runs overwrite BENCH files with tiny
// workloads whose numbers measure nothing.
func judgeTrend(points []benchPoint, threshold float64) []trendRow {
	dir := map[string]bool{}
	order := map[string]int{}
	for i, m := range trackedMetrics {
		dir[m.name] = m.higherBetter
		order[m.name] = i
	}
	type key struct{ host, metric string }
	series := map[key]*trendRow{}
	var keys []key
	for _, p := range points { // already time-sorted
		if p.Quick {
			continue
		}
		for name, v := range p.Metrics {
			if _, tracked := dir[name]; !tracked {
				continue
			}
			k := key{p.HostKey, name}
			row, ok := series[k]
			if !ok {
				row = &trendRow{HostKey: p.HostKey, Metric: name}
				series[k] = row
				keys = append(keys, k)
			}
			row.Points = append(row.Points, v)
			row.Stamps = append(row.Stamps, p.Stamp)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].host != keys[j].host {
			return keys[i].host < keys[j].host
		}
		return order[keys[i].metric] < order[keys[j].metric]
	})
	rows := make([]trendRow, 0, len(keys))
	for _, k := range keys {
		row := series[k]
		n := len(row.Points)
		row.Latest = row.Points[n-1]
		if n > 1 {
			row.HasPrev = true
			higher := dir[row.Metric]
			best := row.Points[0]
			for _, v := range row.Points[1 : n-1] {
				if (higher && v > best) || (!higher && v < best) {
					best = v
				}
			}
			row.BestPrev = best
			if higher {
				floor := best * (1 - threshold)
				if row.Latest < floor {
					row.Regressed = true
					row.RegressMsg = fmt.Sprintf("%s: %.2f < %.2f (best %.2f - %.0f%%)",
						row.Metric, row.Latest, floor, best, threshold*100)
				}
			} else {
				ceil := best + overheadMarginPts
				if row.Latest > ceil {
					row.Regressed = true
					row.RegressMsg = fmt.Sprintf("%s: %.2f%% > %.2f%% (best %.2f%% + %.1f pts)",
						row.Metric, row.Latest, ceil, best, overheadMarginPts)
				}
			}
		}
		rows = append(rows, *row)
	}
	return rows
}

// trendGate is -run trend: print the host-keyed trajectory table and
// exit non-zero when any tracked headline metric regressed.
func trendGate() {
	header("trend", "perf-trend observatory (extension)",
		"beyond the paper: every BENCH artifact in the tree, folded into host-keyed trajectories with a regression gate")
	root := findModuleRoot()
	if root == "" {
		fmt.Println("   (module root not found; run from within the repository)")
		os.Exit(1)
	}
	points, err := collectBench(root)
	if err != nil {
		fmt.Printf("   collecting BENCH files: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("   %d BENCH files parsed under %s\n", len(points), root)
	rows := judgeTrend(points, *trendThreshold)
	if len(rows) == 0 {
		fmt.Println("   no tracked metrics found (nothing to gate)")
		fmt.Printf("   verdict: %s\n", pass(true))
		return
	}
	lastHost := ""
	regressions := 0
	for _, r := range rows {
		if r.HostKey != lastHost {
			fmt.Printf("   host: %s\n", r.HostKey)
			lastHost = r.HostKey
		}
		status := "single point"
		if r.HasPrev {
			status = fmt.Sprintf("best prev %.2f, ok", r.BestPrev)
			if r.Regressed {
				status = "REGRESSED"
				regressions++
			}
		}
		traj := make([]string, len(r.Points))
		for i, v := range r.Points {
			traj[i] = fmt.Sprintf("%.2f", v)
		}
		fmt.Printf("   %-26s %-28s latest %10.2f  (%s)\n",
			r.Metric, strings.Join(traj, " -> "), r.Latest, status)
		if r.Regressed {
			fmt.Printf("      %s\n", r.RegressMsg)
		}
	}
	fmt.Printf("   verdict: %s (%d tracked series, %d regressions, threshold %.0f%%/%.1f pts)\n",
		pass(regressions == 0), len(rows), regressions, *trendThreshold*100, overheadMarginPts)
	if regressions > 0 {
		os.Exit(1)
	}
}
