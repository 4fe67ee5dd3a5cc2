package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadResults reads every results JSON in dir, grouped by workload.
func loadResults(dir string) (map[string][]*result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]*result{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, nil
}

// quartiles are Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which the acceptance check uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// compareDirs prints, for every workload and end-to-end metric, each
// set's median and interquartile spread and a verdict: "unresolved"
// when either spread exceeds the metric's bound, else "regressed" or
// "improved" when B's median is worse or better than A's by more than
// the bound, else "within bound". It fails when any pairing regressed.
// With same, A and B are two sets of one commit and the check is
// two-sided: it fails unless every pairing is within bound.
func compareDirs(w io.Writer, specPath, dirA, dirB string, same bool) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	regressed, disagree := 0, 0
	fmt.Fprintf(w, "%-13s %-17s %5s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "runs", "median A", "IQR A", "median B", "IQR B", "B vs A", "bound", "verdict")
	for _, wl := range workloadNames {
		ra, rb := a[wl], b[wl]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			sa, sb := ratio(a3-a1, am), ratio(b3-b1, bm)
			worse := ratio(bm-am, am)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			case -worse > m.Bound:
				verdict = "improved"
			}
			if verdict != "within bound" {
				disagree++
			}
			fmt.Fprintf(w, "%-13s %-17s %2d/%-2d %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl, m.Name, len(va), len(vb), am, 100*sa, bm, 100*sb, 100*worse, 100*m.Bound, verdict)
		}
	}
	switch {
	case same && disagree > 0:
		return fmt.Errorf("%d pairings of one commit disagree", disagree)
	case regressed > 0:
		return fmt.Errorf("%d pairings regressed", regressed)
	}
	return nil
}

func values(rs []*result, name string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.EndToEnd[name]
	}
	return v
}
