package core_test

import (
	"reflect"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/policy"
)

// TestAutoEngineSelection pins the engine picker's contract: the
// default EngineFused upgrades to the SWAR stepper when the pair tables
// are present and fit the footprint budget (swarAuto; see
// TestSWARAutoBudget), and otherwise runs the single-stride lanes.
// Forced kinds resolve to themselves (or, for SWAR, degrade to lanes
// when the checker has no pair tables, which no preset hits; see
// TestPairTablesRefusedForLargeAutomaton).
func TestAutoEngineSelection(t *testing.T) {
	c, err := core.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts core.VerifyOptions
		want string
	}{
		{"auto", core.VerifyOptions{}, "swar"},
		{"forced-lanes", core.VerifyOptions{Engine: core.EngineLanes}, "lanes"},
		{"forced-swar", core.VerifyOptions{Engine: core.EngineSWAR}, "swar"},
		{"forced-scalar", core.VerifyOptions{Engine: core.EngineFusedScalar}, "fused-scalar"},
		{"reference", core.VerifyOptions{Engine: core.EngineReference}, "reference"},
	}
	for _, tc := range cases {
		if got := c.ResolvedEngineForTest(tc.opts); got != tc.want {
			t.Errorf("%s: resolved to %q, want %q", tc.name, got, tc.want)
		}
	}

	// The census agrees with the resolution, and the density backoff is
	// visible in it: an event-sparse image parses its shards on the SWAR
	// stepper, while auto stays the resolved engine either way.
	nop := make([]byte, 64000)
	for i := range nop {
		nop[i] = 0x90
	}
	rep := c.VerifyWith(nop, core.VerifyOptions{Workers: 1})
	if !rep.Safe {
		t.Fatal("NOP image rejected")
	}
	if rep.Stats.Engine != "swar" {
		t.Errorf("NOP image: Stats.Engine = %q, want swar", rep.Stats.Engine)
	}
	if rep.Stats.SWARBatches == 0 {
		t.Error("NOP image: no shard retired on the SWAR stepper")
	}

	// A generated (jump-dense) image triggers the density backoff on its
	// shards: they re-parse on the lanes, and the verdict and report are
	// byte-identical to a lanes-pinned run.
	img, err := nacl.NewGenerator(5).Random(60000)
	if err != nil {
		t.Fatal(err)
	}
	auto := c.VerifyWith(img, core.VerifyOptions{Workers: 1})
	lanes := c.VerifyWith(img, core.VerifyOptions{Workers: 1, Engine: core.EngineLanes})
	if !auto.Safe || !lanes.Safe {
		t.Fatalf("generated image rejected: auto=%v lanes=%v", auto.Safe, lanes.Safe)
	}
	if auto.Stats.LaneBatches == 0 {
		t.Error("generated image: no shard parsed by the lane engine")
	}
	if !reflect.DeepEqual(auto.Violations, lanes.Violations) ||
		auto.Stats.EngineInvariant() != lanes.Stats.EngineInvariant() {
		t.Error("auto and lanes runs diverged on the generated image")
	}

	// Every constructor builds the pair tables, so auto rides the SWAR
	// stepper from the first image whichever way the checker was made:
	// runtime-compiled policies (the 16-byte-bundle presets included)
	// and the default policy compiled from its grammars.
	for _, spec := range []policy.Spec{policy.NaCl16(), policy.REINS()} {
		com, err := policy.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := core.NewCheckerFromPolicy(com)
		if err != nil {
			t.Fatal(err)
		}
		if got := pc.ResolvedEngineForTest(core.VerifyOptions{}); got != "swar" {
			t.Errorf("%s: auto resolved to %q, want swar", spec.Name, got)
		}
	}
	gc, err := core.NewCheckerFromGrammars()
	if err != nil {
		t.Fatal(err)
	}
	if got := gc.ResolvedEngineForTest(core.VerifyOptions{}); got != "swar" {
		t.Errorf("NewCheckerFromGrammars: auto resolved to %q, want swar", got)
	}
}
