package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/policy"
)

// TestAutoEngineSelection pins what the default engine runs: the
// four-lane walk, whichever constructor made the checker, on event-sparse
// and event-dense images alike. Stats.Engine names it "lanes", shards
// retire as lane batches, and the SWAR census stays zero. The forced
// reference engine reports its own census name.
func TestAutoEngineSelection(t *testing.T) {
	c, err := core.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	nop := bytes.Repeat([]byte{0x90}, 64000)
	img, err := nacl.NewGenerator(5).Random(60000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		img  []byte
	}{{"NOP image", nop}, {"generated image", img}} {
		rep := c.VerifyWith(tc.img, core.VerifyOptions{Workers: 1})
		if !rep.Safe {
			t.Fatalf("%s rejected", tc.name)
		}
		if s := rep.Stats; s.Engine != "lanes" || s.LaneBatches == 0 || s.SWARBatches != 0 {
			t.Errorf("%s: engine %q, %d lane batches, %d SWAR batches; want lanes, > 0, 0",
				tc.name, s.Engine, s.LaneBatches, s.SWARBatches)
		}
		ref := c.VerifyWith(tc.img, core.VerifyOptions{Workers: 1, Engine: core.EngineReference})
		if ref.Stats.Engine != "reference" {
			t.Errorf("%s: EngineReference reported %q, want \"reference\"", tc.name, ref.Stats.Engine)
		}
		if !reflect.DeepEqual(ref.Violations, rep.Violations) ||
			ref.Stats.EngineInvariant() != rep.Stats.EngineInvariant() {
			t.Errorf("%s: reference and default runs diverged", tc.name)
		}
	}

	// Every constructor derives the lanes' tables, so auto runs them
	// from the first image whichever way the checker was made:
	// runtime-compiled policies (the 16-byte-bundle presets included)
	// and the default policy compiled from its grammars.
	checkers := map[string]*core.Checker{}
	for _, spec := range []policy.Spec{policy.NaCl16(), policy.REINS()} {
		com, err := policy.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		if checkers[spec.Name], err = core.NewCheckerFromPolicy(com); err != nil {
			t.Fatal(err)
		}
	}
	if checkers["NewCheckerFromGrammars"], err = core.NewCheckerFromGrammars(); err != nil {
		t.Fatal(err)
	}
	for name, pc := range checkers {
		rep := pc.VerifyWith(nop, core.VerifyOptions{Workers: 1})
		if s := rep.Stats; !rep.Safe || s.Engine != "lanes" || s.LaneBatches == 0 {
			t.Errorf("%s: NOP image safe=%v on engine %q with %d lane batches; want safe on lanes",
				name, rep.Safe, s.Engine, s.LaneBatches)
		}
	}
}
