package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rocksalt/internal/core"
	"rocksalt/internal/policy"
)

// setupTimes is one set-up: policy compiles, checker construction and
// the first verify, in seconds; the host probe's median time right after
// it, in ms; and the set-up time scaled by the probe (hostspeed.go).
type setupTimes struct {
	Setup   float64 `json:"setup_s"`
	Compile float64 `json:"compile_s"`
	New     float64 `json:"new_s"`
	Probe   float64 `json:"probe_ms"`
	Scaled  float64 `json:"scaled_s"`
}

// setupProbes is the number of host probes run after each set-up.
const setupProbes = 9

// setupPoolUnits is the size of the small unit pool that builds the
// set-up images (generating them is not part of set-up).
const setupPoolUnits = 8

// setupOnce performs a workload's set-up in this process and times it:
// compile the workload's policy (nacl-32 ships embedded tables
// instead), construct the checker, and make a first call through the
// workload's entry point. The first call verifies a 1 MiB dense image;
// for jit-edit it is the round that builds the delta state of the
// 64 MiB code region. Only those three steps are timed. Compiles are
// memoized per process, so a process can time set-up once. The host
// probe runs after the timed steps.
func setupOnce(name string, seed int64, sc scale) (setupTimes, error) {
	var st setupTimes
	pr := workloadPreset(name)
	t0 := time.Now()
	var c *core.Checker
	var err error
	if pr == "nacl-32" {
		c, err = core.NewChecker()
	} else {
		var com *policy.Compiled
		com, err = policy.Compile(presetSpec(pr))
		st.Compile = time.Since(t0).Seconds()
		t0 = time.Now()
		if err == nil {
			c, err = core.NewCheckerFromPolicy(com)
		}
	}
	st.New = time.Since(t0).Seconds()
	if err != nil {
		return st, err
	}
	p, err := newPool(pr, mix(seed, streamPool), setupPoolUnits)
	if err != nil {
		return st, err
	}
	var first func() (*core.Report, error)
	switch name {
	case "jit-edit":
		w := jitFor(p, c, seed, sc)
		w.build()
		first = func() (*core.Report, error) {
			rep, _, err := c.VerifyDeltaWith(w.img, nil, nil, core.VerifyOptions{})
			return rep, err
		}
	case "stream":
		im := p.newImage(rand.New(rand.NewSource(seed)), shapeDense, sc.size(mib))
		var rd segReader
		rd.reset(im)
		first = func() (*core.Report, error) {
			return c.VerifyReader(&rd, core.VerifyOptions{StreamSize: int64(im.size)})
		}
	default:
		code := p.newImage(rand.New(rand.NewSource(seed)), shapeDense, sc.size(mib)).assemble(nil)
		first = func() (*core.Report, error) {
			return c.VerifyWith(code, core.VerifyOptions{}), nil
		}
	}
	t0 = time.Now()
	rep, err := first()
	st.Setup = time.Since(t0).Seconds() + st.Compile + st.New
	if err != nil {
		return st, err
	}
	if !rep.Safe {
		return st, fmt.Errorf("%s set-up image rejected: %v", pr, rep.Err())
	}
	st.Probe = probeMedian(setupProbes)
	st.Scaled = st.Setup * probeNominalMs / st.Probe
	return st, nil
}

// measureSetup times set-up cfg.setups times, each in a fresh child
// process (compiles and embedded tables are loaded once per process),
// and returns the medians. With no setups it times set-up once here.
func measureSetup(cfg config) (setupTimes, error) {
	if cfg.setups <= 0 {
		return setupOnce(cfg.workload, cfg.seed, cfg.sc)
	}
	exe, err := os.Executable()
	if err != nil {
		return setupTimes{}, err
	}
	var all []setupTimes
	for i := 0; i < cfg.setups; i++ {
		cmd := exec.Command(exe, "-setup-once", "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return setupTimes{}, fmt.Errorf("set-up process: %w", err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var st setupTimes
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &st); err != nil {
			return setupTimes{}, fmt.Errorf("set-up process output: %w", err)
		}
		all = append(all, st)
	}
	med := func(f func(setupTimes) float64) float64 {
		v := make([]float64, len(all))
		for i, s := range all {
			v[i] = f(s)
		}
		sort.Float64s(v)
		if len(v)%2 == 1 {
			return v[len(v)/2]
		}
		return (v[len(v)/2-1] + v[len(v)/2]) / 2
	}
	return setupTimes{
		Setup:   med(func(s setupTimes) float64 { return s.Setup }),
		Compile: med(func(s setupTimes) float64 { return s.Compile }),
		New:     med(func(s setupTimes) float64 { return s.New }),
		Probe:   med(func(s setupTimes) float64 { return s.Probe }),
		Scaled:  med(func(s setupTimes) float64 { return s.Scaled }),
	}, nil
}

// hostMeta stamps a result with the machine and toolchain it came from.
type hostMeta struct {
	Hostname   string `json:"hostname"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Timestamp  string `json:"timestamp"`
}

func hostInfo() hostMeta {
	name, _ := os.Hostname() // informational: empty when unavailable
	return hostMeta{
		Hostname:   name,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
}
