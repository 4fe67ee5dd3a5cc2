package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"rocksalt/internal/ncval"
)

// tinyScale shrinks every image 256-fold so that every workload runs in
// a few seconds.
var tinyScale = scale{div: 256, poolUnits: 8}

func declared(t *testing.T) (e2e, layer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	return e2e, layer
}

func defNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name+" "+d.unit)
	}
	return out
}

func keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload in-process at the tiny scale, traced,
// and checks that it reports exactly the declared metrics, that every
// verdict matched its known answer, and that the trace saw every shard.
func TestSmoke(t *testing.T) {
	e2e, layer := declared(t)
	if got := defNames(e2eDefs); !reflect.DeepEqual(got, e2e) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, e2e)
	}
	if got := defNames(layerDefs); !reflect.DeepEqual(got, layer) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, layer)
	}
	for _, name := range workloadNames {
		res, err := run(config{workload: name, seed: 1, ops: 16, warmOps: 4, trace: true, sc: tinyScale})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := keys(res.EndToEnd), names(e2eDefs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: end-to-end metrics %v, want %v", name, got, want)
		}
		if got, want := keys(res.PerLayer), names(layerDefs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: per-layer metrics %v, want %v", name, got, want)
		}
		if res.Failed != 0 || !res.Correct {
			t.Errorf("%s: %d of %d ops failed: %v", name, res.Failed, res.Attempted, res.Failures)
		}
		if res.PerLayer["trace.complete"] != 1 {
			t.Errorf("%s: trace incomplete", name)
		}
		if res.TimedOps != 16 || res.TracedOps != 4 {
			t.Errorf("%s: %d timed, %d traced ops; want 16 and 4", name, res.TimedOps, res.TracedOps)
		}
	}
}

// input returns the bytes the workload's current op verifies (and, for
// a delta round, the ranges it declares changed).
func input(t *testing.T, w workload) []byte {
	switch w := w.(type) {
	case *catalog:
		if w.stream {
			b, err := io.ReadAll(&w.rd)
			if err != nil {
				t.Fatal(err)
			}
			w.rd.reset(w.cur)
			return b
		}
		return w.code
	case *jit:
		b := append([]byte(nil), w.img...)
		for _, r := range w.changed {
			b = binary.LittleEndian.AppendUint64(b, uint64(r.Off))
			b = binary.LittleEndian.AppendUint64(b, uint64(r.Len))
		}
		return b
	}
	t.Fatalf("unknown workload type %T", w)
	return nil
}

// ops plays a fresh workload's first n ops of the sequence, then the
// rejection check's ops (each poison followed by an ordinary op), and
// calls f after each op is planned.
func ops(w workload, n int, f func()) {
	for i := 0; i < n; i++ {
		w.next()
		f()
	}
	for i := 0; i < rejectOps; i++ {
		w.poison()
		f()
		w.next()
		f()
	}
}

// digest hashes the first n ops of a freshly generated workload and its
// rejection check: every op's input bytes and known answer.
func digest(t *testing.T, name string, seed int64, n int) [32]byte {
	w, err := newWorkload(name, seed, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	ops(w, n, func() {
		poison, bundle := w.expect()
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[:8], uint64(poison))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(bundle))
		h.Write(hdr[:])
		h.Write(input(t, w))
	})
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// TestInputsDeterministic: the same seed gives byte-identical inputs
// and op sequences; another seed gives different ones.
func TestInputsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := digest(t, name, 1, 40), digest(t, name, 1, 40), digest(t, name, 2, 40)
		if a != b {
			t.Errorf("%s: seed 1 gave two different op sequences", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", name)
		}
	}
}

// TestOracleAgreesWithNcval holds the known answers to the independent
// validator: ncval, under each image's preset, accepts every image
// built safe and rejects every poisoned one, including the rejection
// check's. The checker under test is not consulted.
func TestOracleAgreesWithNcval(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, 3, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		preset := workloadPreset(name)
		cf, err := ncval.ConfigForSpec(presetSpec(preset))
		if err != nil {
			t.Fatal(err)
		}
		n := 300
		if c, ok := w.(*catalog); ok {
			n = len(c.imgs)
		}
		i, rejected := 0, 0
		ops(w, n, func() {
			code := input(t, w)
			if j, ok := w.(*jit); ok {
				code = j.img
			}
			poison, _ := w.expect()
			if got := cf.Validate(code); got != (poison < 0) {
				t.Fatalf("%s op %d (%s, %d bytes, poison %d): ncval says %v", name, i, preset, len(code), poison, got)
			}
			if poison >= 0 {
				rejected++
			}
			i++
		})
		if rejected != rejectOps {
			t.Errorf("%s: %d poisoned ops, want %d", name, rejected, rejectOps)
		}
	}
}

// TestCompareVerdicts: B better than A beyond the bound passes a
// parent/change comparison but fails a same-commit one; B worse beyond
// the bound fails both.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "verdict_ms", "unit": "ms", "better": "lower", "bound": 0.2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	set := func(name string, v float64) string {
		d := filepath.Join(dir, name)
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			data, err := json.Marshal(result{Workload: "dense", EndToEnd: map[string]float64{"verdict_ms": v}})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(d, fmt.Sprintf("%d.json", i)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	a, faster, slower := set("a", 1), set("faster", 0.5), set("slower", 2)
	for _, c := range []struct {
		b    string
		same bool
		fail bool
	}{{faster, false, false}, {faster, true, true}, {slower, false, true}, {slower, true, true}, {a, true, false}} {
		err := compareDirs(io.Discard, spec, a, c.b, c.same)
		if (err != nil) != c.fail {
			t.Errorf("compare %s vs %s (same=%v): err = %v, want failure %v", a, c.b, c.same, err, c.fail)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) and a two-sample case.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}
