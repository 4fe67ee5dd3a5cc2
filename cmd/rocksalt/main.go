// Command rocksalt verifies a flat x86 code image against the NaCl
// sandbox policy using the DFA-driven RockSalt checker.
//
// Usage:
//
//	rocksalt [-entries 0x10000,0x10020] [-tables tables.bin]
//	         [-policy spec.json] [-engine auto] [-j N] [-timeout 5s]
//	         [-cache 64] [-delta old.bin] [-stream] [-stats] [-json]
//	         [-q] [-v] [-metrics-addr :9090] [-linger 0s]
//	         [-trace-out t.json] [-postmortem-dir d] file.bin
//
// The exit status is 0 when the image is safe, 1 when it is rejected,
// 2 on usage or input errors (including an empty input file, a
// malformed or contradictory -policy spec, and combining -policy with
// -tables), and 3 when -timeout expired before verification finished —
// an interrupted run is never reported safe.
//
// -entries whitelists out-of-image entry points direct jumps may
// target; -tables loads a pre-generated DFA bundle (from dfagen -o)
// instead of compiling the grammars; -policy compiles a JSON policy
// spec (see DESIGN.md §6g for the schema) at runtime and verifies
// against that policy instead of the default NaCl one — mutually
// exclusive with -tables, which already fixes the policy; -j sets the
// stage-1 worker count (0 = all CPUs); -timeout aborts long runs; -q
// suppresses output in favour of the exit status.
//
// -engine picks the stage-1 stepper: auto (the default: the four-lane
// walk, which hands any irregular shard to the Figure-5 loop) or
// reference (the Figure-5 loop on every shard). Verdicts are
// engine-invariant byte for byte; the stepper that ran is recorded in
// the -stats/-json engine field ("lanes" or "reference"). Anything
// else exits 2.
//
// -cache N attaches an N-MiB content-addressed verdict cache for the
// process lifetime and reports the image's content key. One-shot runs
// mostly pay for the hashing; the flag is the CLI surface of the same
// engine feature a long-lived embedder would use across many Verify
// calls, and -stats/-json expose its hit/miss counters.
//
// -delta old.bin verifies file.bin incrementally: it first verifies
// old.bin (the previous revision of the image) to build the retained
// delta state, byte-diffs the two revisions into changed ranges, and
// re-verifies file.bin through Checker.VerifyDelta — re-parsing only
// the 64 KiB chunks the edits touched. The verdict and exit status are
// those of file.bin, byte-identical to a full run; -stats/-json report
// the round's chunks reparsed/replayed, delta bytes and the chunk
// hit-ratio. -stream verifies file.bin through the bounded-window
// streaming path (Checker.VerifyReader) instead of mapping it whole —
// the CLI face of the multi-GiB service path; it is mutually exclusive
// with -delta.
//
// -stats prints the per-run engine record (bytes, bundles, instruction
// boundaries, shard parse modes, cache effectiveness with the chunk
// hit-ratio, delta reuse counters, per-stage wall times); -json
// switches the whole verdict to a machine-readable JSON object on
// stdout (including the cache_key under -cache and the chunk_hit_ratio
// under -cache/-delta).
// -metrics-addr serves Prometheus metrics on /metrics, expvar on
// /debug/vars and the pprof profiles on /debug/pprof/ for the life of
// the process (use -linger to keep serving after the verdict, e.g. to
// scrape a one-shot run); it also enables global telemetry and
// registers the rocksalt_build_info identity gauge. -v emits
// structured run logs on stderr, correlated by a random run_id.
//
// -trace-out installs the flight recorder for the run and writes its
// span timeline as Chrome trace-event JSON to the given path — load it
// in Perfetto (ui.perfetto.dev) or chrome://tracing to see the run →
// shard → reconcile → jump-check spans per worker. -postmortem-dir
// also installs the recorder and, when the verdict is a rejection or
// an interrupted run, writes a postmortem bundle there: a JSON
// snapshot of the recorded spans, the engine stats and census, the
// policy fingerprint and table-bundle version, and the violations.
// Both flags cost one atomic pointer load per Verify when idle; a safe,
// uninterrupted run writes no postmortem.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"rocksalt/internal/core"
	"rocksalt/internal/flight"
	"rocksalt/internal/policy"
	"rocksalt/internal/telemetry"
	"rocksalt/internal/vcache"
)

// usage is the one-line synopsis printed on argument errors. A test
// (cli_test.go) holds it and the package doc comment to the actual flag
// set, so neither can drift when a flag is added.
const usage = "usage: rocksalt [-entries addr,addr] [-tables f] [-policy spec.json] [-engine auto|reference] [-j N] [-timeout d] [-cache MiB] [-delta old.bin] [-stream] [-stats] [-json] [-v] [-metrics-addr a] [-linger d] [-trace-out f] [-postmortem-dir d] [-q] file.bin"

// cliFlags is every rocksalt flag, registered on a caller-supplied
// FlagSet so tests can enumerate the registry without running main.
type cliFlags struct {
	entries     *string
	quiet       *bool
	tables      *string
	policySpec  *string
	engine      *string
	workers     *int
	timeout     *time.Duration
	cacheMiB    *int
	stats       *bool
	jsonOut     *bool
	verbose     *bool
	metricsAddr *string
	linger      *time.Duration
	traceOut    *string
	postmortem  *string
	delta       *string
	stream      *bool
}

func registerFlags(fs *flag.FlagSet) *cliFlags {
	return &cliFlags{
		entries:     fs.String("entries", "", "comma-separated out-of-image entry points (hex) direct jumps may target"),
		quiet:       fs.Bool("q", false, "suppress output; use the exit status"),
		tables:      fs.String("tables", "", "load pre-generated DFA tables (from dfagen -o) instead of compiling grammars"),
		policySpec:  fs.String("policy", "", "compile this JSON policy spec at runtime and verify against it (mutually exclusive with -tables)"),
		engine:      fs.String("engine", "auto", "stage-1 stepper: auto or reference (verdicts are engine-invariant)"),
		workers:     fs.Int("j", 1, "stage-1 verification workers (0 = all CPUs)"),
		timeout:     fs.Duration("timeout", 0, "abort verification after this duration (exit 3); 0 = no limit"),
		cacheMiB:    fs.Int("cache", 0, "attach a content-addressed verdict cache of this many MiB (0 = no cache)"),
		stats:       fs.Bool("stats", false, "print the per-run engine stats after the verdict"),
		jsonOut:     fs.Bool("json", false, "print the verdict and stats as JSON on stdout"),
		verbose:     fs.Bool("v", false, "structured run logs on stderr"),
		metricsAddr: fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address; enables telemetry"),
		linger:      fs.Duration("linger", 0, "keep the metrics server up this long after the verdict (with -metrics-addr)"),
		traceOut:    fs.String("trace-out", "", "record the run's flight spans and write them as Chrome trace-event JSON to this file"),
		postmortem:  fs.String("postmortem-dir", "", "on rejection or interruption, write a postmortem bundle (spans, stats, policy identity) into this directory"),
		delta:       fs.String("delta", "", "re-verify incrementally against this previous revision of the image (VerifyDelta; re-parses only changed chunks)"),
		stream:      fs.Bool("stream", false, "verify through the bounded-window streaming path (VerifyReader) instead of mapping the image whole"),
	}
}

// jsonViolation is the machine-readable form of one violation.
type jsonViolation struct {
	Offset int    `json:"offset"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// jsonVerdict is the -json output: the full verdict plus the per-run
// engine stats.
type jsonVerdict struct {
	File       string          `json:"file"`
	Safe       bool            `json:"safe"`
	Outcome    string          `json:"outcome"`
	Size       int             `json:"size"`
	Shards     int             `json:"shards"`
	Workers    int             `json:"workers"`
	Total      int             `json:"total_violations"`
	Violations []jsonViolation `json:"violations,omitempty"`
	Stats      core.Stats      `json:"stats"`
	// ChunkHitRatio is chunk-grade reuse effectiveness: cache chunk
	// hits (under -cache) plus delta chunk replays (under -delta) over
	// all chunk-grade opportunities; 0 when neither layer ran.
	ChunkHitRatio float64 `json:"chunk_hit_ratio"`
	CacheKey      string  `json:"cache_key,omitempty"`
	ElapsedNS     int64   `json:"elapsed_ns"`
	MBPerSec      float64 `json:"mb_per_s"`
}

func main() {
	f := registerFlags(flag.CommandLine)
	flag.Parse()
	entries, quiet, tables, workers := f.entries, f.quiet, f.tables, f.workers
	timeout, stats, jsonOut, verbose := f.timeout, f.stats, f.jsonOut, f.verbose
	metricsAddr, linger := f.metricsAddr, f.linger
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}

	level := slog.LevelError
	if *verbose || *metricsAddr != "" {
		level = slog.LevelInfo
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level})).
		With("run_id", telemetry.NewRunID())

	code, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "rocksalt:", err)
		os.Exit(2)
	}
	if len(code) == 0 {
		fmt.Fprintf(os.Stderr, "rocksalt: %s: empty input image (nothing to verify)\n", flag.Arg(0))
		os.Exit(2)
	}

	if *metricsAddr != "" {
		telemetry.SetEnabled(true)
		telemetry.PublishExpvar(telemetry.Default())
		ln, lerr := net.Listen("tcp", *metricsAddr)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "rocksalt:", lerr)
			os.Exit(2)
		}
		log.Info("metrics serving", "addr", ln.Addr().String())
		go func() {
			srv := &http.Server{Handler: telemetry.Handler(telemetry.Default())}
			if serr := srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
				log.Error("metrics server", "err", serr)
			}
		}()
	}

	var checker *core.Checker
	switch {
	case *tables != "" && *f.policySpec != "":
		fmt.Fprintln(os.Stderr, "rocksalt: -tables and -policy are mutually exclusive (a table bundle already fixes the policy)")
		os.Exit(2)
	case *tables != "":
		f, ferr := os.Open(*tables)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "rocksalt:", ferr)
			os.Exit(2)
		}
		checker, err = core.NewCheckerFromTables(f)
		f.Close()
	case *f.policySpec != "":
		data, ferr := os.ReadFile(*f.policySpec)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "rocksalt:", ferr)
			os.Exit(2)
		}
		var spec policy.Spec
		if spec, err = policy.ParseSpec(data); err == nil {
			var com *policy.Compiled
			if com, err = policy.Compile(spec); err == nil {
				checker, err = core.NewCheckerFromPolicy(com)
			}
		}
	default:
		checker, err = core.NewChecker()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rocksalt:", err)
		os.Exit(2)
	}
	if *metricsAddr != "" {
		core.PublishBuildInfo(checker)
	}
	var recorder *flight.Recorder
	if *f.traceOut != "" || *f.postmortem != "" {
		recorder = flight.NewRecorder(0)
		flight.SetGlobal(recorder)
	}
	if *entries != "" {
		checker.Entries = map[uint32]bool{}
		for _, e := range strings.Split(*entries, ",") {
			v, err := strconv.ParseUint(strings.TrimPrefix(strings.TrimSpace(e), "0x"), 16, 32)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rocksalt: bad entry %q: %v\n", e, err)
				os.Exit(2)
			}
			checker.Entries[uint32(v)] = true
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := core.VerifyOptions{Workers: *workers}
	switch *f.engine {
	case "auto", "":
		// The default engine: the four-lane walk.
	case "reference":
		opts.Engine = core.EngineReference
	default:
		fmt.Fprintf(os.Stderr, "rocksalt: unknown -engine %q (want auto or reference)\n", *f.engine)
		os.Exit(2)
	}
	if *f.cacheMiB > 0 {
		opts.Cache = vcache.New(int64(*f.cacheMiB) << 20)
	}
	if *f.delta != "" && *f.stream {
		fmt.Fprintln(os.Stderr, "rocksalt: -delta and -stream are mutually exclusive")
		os.Exit(2)
	}
	log.Info("verify start", "file", flag.Arg(0), "bytes", len(code), "workers", *workers,
		"cache_mib", *f.cacheMiB, "delta", *f.delta, "stream", *f.stream)
	start := time.Now()
	var rep *core.Report
	switch {
	case *f.delta != "":
		old, derr := os.ReadFile(*f.delta)
		if derr != nil {
			fmt.Fprintln(os.Stderr, "rocksalt:", derr)
			os.Exit(2)
		}
		// Round 1 builds the retained state from the previous revision;
		// round 2 re-verifies the current one against it. Only round 2's
		// report (and stats) is the verdict.
		_, state, derr2 := checker.VerifyDeltaContext(ctx, old, nil, nil, opts)
		if derr2 != nil {
			fmt.Fprintln(os.Stderr, "rocksalt:", derr2)
			os.Exit(2)
		}
		rep, _, derr2 = checker.VerifyDeltaContext(ctx, code, diffRanges(old, code), state, opts)
		if derr2 != nil {
			fmt.Fprintln(os.Stderr, "rocksalt:", derr2)
			os.Exit(2)
		}
	case *f.stream:
		in, serr := os.Open(flag.Arg(0))
		if serr != nil {
			fmt.Fprintln(os.Stderr, "rocksalt:", serr)
			os.Exit(2)
		}
		sopts := opts
		sopts.StreamSize = int64(len(code))
		rep, err = checker.VerifyReaderContext(ctx, in, sopts)
		in.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rocksalt:", err)
			os.Exit(2)
		}
	default:
		rep = checker.VerifyContext(ctx, code, opts)
	}
	elapsed := time.Since(start)
	mbs := float64(len(code)) / (1 << 20) / elapsed.Seconds()
	log.Info("verify done", "outcome", rep.Outcome.String(), "elapsed", elapsed,
		"mb_per_s", fmt.Sprintf("%.1f", mbs), "violations", rep.Total)

	if recorder != nil {
		flushFlight(log, recorder, checker, rep, *f.traceOut, *f.postmortem, flag.Arg(0))
	}

	status := 0
	switch {
	case rep.Interrupted():
		status = 3
	case !rep.Safe:
		status = 1
	}

	if *jsonOut {
		jv := jsonVerdict{
			File:          flag.Arg(0),
			Safe:          rep.Safe,
			Outcome:       rep.Outcome.String(),
			Size:          rep.Size,
			Shards:        rep.Shards,
			Workers:       rep.Workers,
			Total:         rep.Total,
			Stats:         rep.Stats,
			ChunkHitRatio: rep.Stats.ChunkHitRatio(),
			CacheKey:      rep.CacheKey,
			ElapsedNS:     int64(elapsed),
			MBPerSec:      mbs,
		}
		for i := range rep.Violations {
			v := &rep.Violations[i]
			jv.Violations = append(jv.Violations, jsonViolation{
				Offset: v.Offset, Kind: v.Kind.String(), Detail: v.Detail,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jv); err != nil {
			fmt.Fprintln(os.Stderr, "rocksalt:", err)
			os.Exit(2)
		}
		lingerExit(log, *metricsAddr, *linger, status)
	}

	if rep.Interrupted() {
		if !*quiet {
			fmt.Printf("%s: INTERRUPTED (%s after %v; no verdict)\n", flag.Arg(0), rep.Outcome, elapsed)
		}
		lingerExit(log, *metricsAddr, *linger, 3)
	}
	if !*quiet {
		if rep.Safe {
			fmt.Printf("%s: SAFE (%d bytes, %d shards, %d workers, checked in %v, %.1f MB/s)\n",
				flag.Arg(0), rep.Size, rep.Shards, rep.Workers, elapsed, mbs)
		} else {
			v := rep.First()
			fmt.Printf("%s: REJECTED: %s at offset %#x\n", flag.Arg(0), v.Kind, v.Offset)
			if v.Detail != "" {
				fmt.Printf("  detail: %s\n", v.Detail)
			}
			if len(v.Window) > 0 {
				fmt.Printf("  bytes at %#x: % x\n", v.Offset, v.Window)
			}
			if v.Stack != "" {
				fmt.Printf("  recovered stack:\n%s\n", v.Stack)
			}
			if rep.Total > 1 {
				fmt.Printf("  (%d violations in total; lowest offset shown)\n", rep.Total)
			}
		}
		if *stats {
			fmt.Println(rep.Stats.String())
			if rep.CacheKey != "" {
				fmt.Printf("content key %s\n", rep.CacheKey)
			}
		}
	}
	lingerExit(log, *metricsAddr, *linger, status)
}

// diffRanges byte-compares two revisions of an image into the changed
// ranges VerifyDelta consumes, coalescing runs of differing bytes less
// than a chunk apart (finer ranges cannot dirty fewer chunks, and a
// shorter list walks faster). A length difference needs no explicit
// range: VerifyDelta re-parses everything the size change can affect.
func diffRanges(old, new []byte) []core.Range {
	n := len(old)
	if len(new) < n {
		n = len(new)
	}
	var ranges []core.Range
	const gap = 64 << 10
	for i := 0; i < n; {
		if old[i] == new[i] {
			i++
			continue
		}
		start := i
		last := i
		for i++; i < n && i-last < gap; i++ {
			if old[i] != new[i] {
				last = i
			}
		}
		ranges = append(ranges, core.Range{Off: start, Len: last + 1 - start})
		i = last + 1
	}
	return ranges
}

// flushFlight drains the flight recorder after the verdict: the span
// timeline goes to -trace-out as Chrome trace-event JSON, and a
// rejected or interrupted run additionally drops a postmortem bundle
// into -postmortem-dir. A trace-write failure is a hard error (exit 2
// — the user asked for an artifact the run cannot produce); a
// postmortem-write failure only logs, because the verdict and exit
// status must survive a full disk.
func flushFlight(log *slog.Logger, recorder *flight.Recorder, checker *core.Checker,
	rep *core.Report, traceOut, postmortemDir, file string) {
	events := recorder.Snapshot()
	if traceOut != "" {
		if err := flight.WriteChromeTraceFile(traceOut, events); err != nil {
			fmt.Fprintln(os.Stderr, "rocksalt:", err)
			os.Exit(2)
		}
		log.Info("trace written", "path", traceOut, "events", len(events))
	}
	if postmortemDir == "" || (rep.Safe && !rep.Interrupted()) {
		return
	}
	var violations []jsonViolation
	for i := range rep.Violations {
		v := &rep.Violations[i]
		violations = append(violations, jsonViolation{
			Offset: v.Offset, Kind: v.Kind.String(), Detail: v.Detail,
		})
	}
	pm := &flight.Postmortem{
		Reason:            rep.Outcome.String(),
		File:              file,
		TableBundle:       checker.TableBundle(),
		PolicyFingerprint: checker.Fingerprint(),
		CacheKey:          rep.CacheKey,
		Stats:             rep.Stats,
		Violations:        violations,
		Spans:             events,
	}
	path, err := flight.WritePostmortem(postmortemDir, pm)
	if err != nil {
		log.Error("postmortem write failed", "err", err)
		return
	}
	log.Info("postmortem written", "path", path, "spans", len(events))
}

// lingerExit optionally keeps the metrics server reachable after the
// verdict (so a scraper or test can read the final counters of a
// one-shot run), then exits with the verdict status.
func lingerExit(log *slog.Logger, metricsAddr string, linger time.Duration, status int) {
	if metricsAddr != "" && linger > 0 {
		log.Info("lingering", "for", linger)
		time.Sleep(linger)
	}
	os.Exit(status)
}
