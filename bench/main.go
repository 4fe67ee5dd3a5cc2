// Command bench is the repository's benchmark: five workloads that
// drive the checker through its public entry points, check every
// verdict against an answer known from how the input was built, and
// report end-to-end metrics plus a per-layer ledger.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//	bash bench/run.sh --compare [--same] <dirA> <dirB>
//
// One run prints every metric by name and unit, writes a host-stamped
// results JSON under the -out directory, and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"}, where the metrics are
// the end-to-end ones with -trace 0 and the per-layer ones with -trace 1.
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

func main() {
	workload := flag.String("workload", "all", "workload to run, or all (each in its own process)")
	seed := flag.Int64("seed", 1, "seed the inputs and op sequence are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 1, "1 replays a quarter of the timed ops under the flight recorder and reports the per-layer metrics; 0 reports the end-to-end metrics")
	out := flag.String("out", filepath.Join(".bench_build", "results"), "directory the results JSON is written to")
	compare := flag.Bool("compare", false, "compare the results in two directories given as arguments")
	same := flag.Bool("same", false, "with -compare: the two directories hold one commit's results, so a difference beyond the bound in either direction fails")
	setupOnly := flag.Bool("setup-once", false, "time the workload's set-up once in this process and print it (runs start one such child per set-up)")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result directories")
			break
		}
		err = compareDirs(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1), *same)
	case *setupOnly:
		var st setupTimes
		if st, err = setupOnce(*workload, *seed, fullScale); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(st)
		}
	case *workload == "all":
		err = runAll(*seed, *seconds, *trace, *out)
	default:
		err = runOne(config{
			workload: *workload,
			seed:     *seed,
			seconds:  time.Duration(*seconds * float64(time.Second)),
			warmup:   warmupFor(*seconds),
			trace:    *trace != 0,
			setups:   21,
			sc:       fullScale,
		}, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// warmupFor is the untimed warm-up before a timed phase of the given
// length: 2 s, or a fifth of a shorter phase.
func warmupFor(seconds float64) time.Duration {
	w := 2 * time.Second
	if f := time.Duration(seconds * float64(time.Second) / 5); f < w {
		w = f
	}
	return w
}

// runOne runs one workload, prints its metrics and writes its results.
func runOne(cfg config, dir string) error {
	res, err := run(cfg)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", res.Workload, res.Seed, boolInt(res.Trace), time.Now().UnixNano())
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	defs, values := e2eDefs, res.EndToEnd
	if res.Trace {
		defs, values = layerDefs, res.PerLayer
	}
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metricOut{}
	for _, d := range defs {
		metrics[d.name] = metricOut{values[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runAll runs every workload, each in a fresh child process so that
// memoized compiles and peak memory do not leak between workloads.
func runAll(seed int64, seconds float64, trace int, dir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	for _, w := range workloadNames {
		fmt.Printf("== %s\n", w)
		cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", dir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", failed, len(workloadNames))
	}
	return nil
}

func printResult(f *os.File, res *result) {
	fmt.Fprintf(f, "workload %s  seed %d  gen %.2fs  warm-up %d ops  timed %d ops  traced %d ops  attempted %d  failed %d\n",
		res.Workload, res.Seed, res.GenS, res.WarmupOps, res.TimedOps, res.TracedOps, res.Attempted, res.Failed)
	for _, m := range res.Failures {
		fmt.Fprintln(f, "  FAIL", m)
	}
	for _, d := range e2eDefs {
		fmt.Fprintf(f, "  %-30s %14.4f %s\n", d.name, res.EndToEnd[d.name], d.unit)
	}
	for _, d := range infoDefs {
		fmt.Fprintf(f, "  %-30s %14.4f %s (not gated)\n", d.name, res.Info[d.name], d.unit)
	}
	for _, d := range layerDefs {
		fmt.Fprintf(f, "  %-30s %14.4f %s\n", d.name, res.PerLayer[d.name], d.unit)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
