package faultinject_test

import (
	"bytes"
	"context"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/faultinject"
	"rocksalt/internal/nacl"
	"rocksalt/internal/telemetry"
)

func checker(t testing.TB) *core.Checker {
	t.Helper()
	c, err := core.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func corpus(t testing.TB, n, instrs int) [][]byte {
	t.Helper()
	gen := nacl.NewGenerator(77)
	c := checker(t)
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		img, err := gen.Random(instrs)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Verify(img) {
			t.Fatalf("corpus image %d rejected before mutation", i)
		}
		out = append(out, img)
	}
	return out
}

// TestMutateDeterministic: Mutate is a pure function of (img, kind,
// seed) and never aliases or modifies its input.
func TestMutateDeterministic(t *testing.T) {
	base := corpus(t, 1, 60)[0]
	orig := append([]byte(nil), base...)
	for k := 0; k < faultinject.NumImageKinds; k++ {
		kind := faultinject.Kind(k)
		for seed := int64(0); seed < 50; seed++ {
			a := faultinject.Mutate(base, kind, seed)
			b := faultinject.Mutate(base, kind, seed)
			if !bytes.Equal(a, b) {
				t.Fatalf("%v seed %d: two runs differ", kind, seed)
			}
			if !bytes.Equal(base, orig) {
				t.Fatalf("%v seed %d: input image modified", kind, seed)
			}
		}
		// At least some seeds must actually change the image (a mutator
		// that never mutates kills nothing).
		changed := 0
		for seed := int64(0); seed < 50; seed++ {
			if !bytes.Equal(faultinject.Mutate(base, kind, seed), orig) {
				changed++
			}
		}
		if changed == 0 {
			t.Errorf("%v: no seed out of 50 produced a distinct mutant", kind)
		}
	}
}

// TestMutateSmallImages: the mutators are total on degenerate inputs.
func TestMutateSmallImages(t *testing.T) {
	for _, img := range [][]byte{nil, {}, {0x90}, bytes.Repeat([]byte{0x90}, 32)} {
		for k := 0; k < faultinject.NumImageKinds; k++ {
			out := faultinject.Mutate(img, faultinject.Kind(k), 3)
			if len(out) > len(img) {
				t.Errorf("kind %d grew a %d-byte image to %d", k, len(img), len(out))
			}
		}
	}
}

// TestFaultInjectionCampaign is the acceptance-criteria run: >= 10,000
// deterministic mutants over the seed corpus with zero invariant
// violations — every mutant is rejected, or it is accepted and its
// simulation stays inside the sandbox.
func TestFaultInjectionCampaign(t *testing.T) {
	bases := corpus(t, 5, 60)
	perKind := 500 // 5 bases x 4 kinds x 500 = 10,000 mutants
	if testing.Short() {
		perKind = 50
	}
	// Run with telemetry enabled and hold the campaign counters to the
	// same accounting as the returned Stats (deltas: other tests in the
	// binary also bump the process-wide counters).
	prevTel := telemetry.Enabled()
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prevTel)
	reg := telemetry.Default()
	mutants0, _ := reg.Value("rocksalt_faultinject_mutants_total")
	rejected0, _ := reg.Value("rocksalt_faultinject_rejected_total")
	contained0, _ := reg.Value("rocksalt_faultinject_contained_total")
	escapes0, _ := reg.Value("rocksalt_faultinject_escapes_total")

	h := &faultinject.Harness{Checker: checker(t)}
	stats, err := h.Run(context.Background(), bases, perKind, 1)
	if err != nil {
		t.Fatalf("campaign interrupted: %v", err)
	}

	mutants1, _ := reg.Value("rocksalt_faultinject_mutants_total")
	rejected1, _ := reg.Value("rocksalt_faultinject_rejected_total")
	contained1, _ := reg.Value("rocksalt_faultinject_contained_total")
	escapes1, _ := reg.Value("rocksalt_faultinject_escapes_total")
	if mutants1-mutants0 != int64(stats.Mutants) ||
		rejected1-rejected0 != int64(stats.Rejected) ||
		contained1-contained0 != int64(stats.Contained) ||
		escapes1-escapes0 != int64(len(stats.Escapes)) {
		t.Errorf("campaign counters diverged from Stats: mutants %d/%d rejected %d/%d contained %d/%d escapes %d/%d",
			mutants1-mutants0, stats.Mutants, rejected1-rejected0, stats.Rejected,
			contained1-contained0, stats.Contained, escapes1-escapes0, len(stats.Escapes))
	}
	if want := len(bases) * faultinject.NumImageKinds * perKind; stats.Mutants != want {
		t.Fatalf("ran %d mutants, want %d", stats.Mutants, want)
	}
	if len(stats.Escapes) != 0 {
		for _, e := range stats.Escapes {
			t.Errorf("sandbox escape: %v", e)
		}
		t.Fatalf("%d invariant violations in %d mutants", len(stats.Escapes), stats.Mutants)
	}
	if stats.Rejected+stats.Contained != stats.Mutants {
		t.Fatalf("accounting: %d rejected + %d contained != %d mutants",
			stats.Rejected, stats.Contained, stats.Mutants)
	}
	// The campaign must actually exercise both arms of the invariant.
	if stats.Rejected == 0 {
		t.Error("no mutant was rejected — the mutators are too gentle")
	}
	if stats.Contained == 0 {
		t.Error("no mutant survived to simulation — the containment arm is untested")
	}
	for k, ks := range stats.PerKind {
		if ks.Mutants == 0 {
			t.Errorf("kind %v generated no mutants", k)
		}
	}
}

// TestCampaignDeterministic: two identical campaigns produce the same
// kill table.
func TestCampaignDeterministic(t *testing.T) {
	bases := corpus(t, 2, 40)
	h := &faultinject.Harness{Checker: checker(t)}
	a, err := h.Run(context.Background(), bases, 25, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Run(context.Background(), bases, 25, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mutants != b.Mutants || a.Rejected != b.Rejected || a.Contained != b.Contained {
		t.Fatalf("campaigns diverged: %+v vs %+v", a, b)
	}
	for k := 0; k < faultinject.NumImageKinds; k++ {
		ka, kb := a.PerKind[faultinject.Kind(k)], b.PerKind[faultinject.Kind(k)]
		if *ka != *kb {
			t.Fatalf("kind %v diverged: %+v vs %+v", faultinject.Kind(k), *ka, *kb)
		}
	}
}

// TestCampaignCancellation: a canceled campaign stops early and
// reports the context error with partial stats, mirroring the
// engine's own cancellation discipline.
func TestCampaignCancellation(t *testing.T) {
	bases := corpus(t, 2, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h := &faultinject.Harness{Checker: checker(t)}
	stats, err := h.Run(ctx, bases, 1000, 1)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if stats.Mutants != 0 {
		t.Fatalf("pre-canceled campaign still ran %d mutants", stats.Mutants)
	}
}

// TestTableCorruptionFailsClosed: corrupting the DFA bundle NewChecker
// ships can never yield a checker that silently disagrees with the
// pristine one — the loader's magic/shape/CRC checks reject essentially
// all corruptions, and anything that loads must verify identically.
func TestTableCorruptionFailsClosed(t *testing.T) {
	probes := corpus(t, 2, 30)
	probes = append(probes, nacl.Unsafe(nacl.BareIndirectJump), nacl.Unsafe(nacl.StraddlingBoundary))
	n := 600
	if testing.Short() {
		n = 60
	}
	rejected, clean, err := faultinject.CheckTables(core.EmbeddedTableBytes(), probes, checker(t), n, 5)
	if err != nil {
		t.Fatalf("fail-open table load: %v", err)
	}
	if rejected+clean != n {
		t.Fatalf("accounting: %d + %d != %d", rejected, clean, n)
	}
	if rejected == 0 {
		t.Error("no corruption was rejected by the loader — CRC/shape checks are dead")
	}
}
