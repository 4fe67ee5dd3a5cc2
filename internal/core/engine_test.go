package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/policy"
)

// requireSameReport asserts that two runs of the engine produced the
// same verdict and the same violation list (the Workers field is the
// one legitimate difference).
func requireSameReport(t *testing.T, seq, par *core.Report, ctx string) {
	t.Helper()
	if seq.Safe != par.Safe {
		t.Fatalf("%s: verdict diverged: sequential=%v parallel=%v", ctx, seq.Safe, par.Safe)
	}
	if seq.Shards != par.Shards || seq.Size != par.Size || seq.Total != par.Total {
		t.Fatalf("%s: report shape diverged: seq={shards %d size %d total %d} par={shards %d size %d total %d}",
			ctx, seq.Shards, seq.Size, seq.Total, par.Shards, par.Size, par.Total)
	}
	if !reflect.DeepEqual(seq.Violations, par.Violations) {
		t.Fatalf("%s: violations diverged:\nseq: %+v\npar: %+v", ctx, seq.Violations, par.Violations)
	}
}

// TestVerifyWithMatchesSequential is the equivalence property the
// tentpole is stated over: on compliant images, tampered mutants, and
// the hand-crafted unsafe corpus, the parallel engine reports exactly
// the sequential verdict and first-violation offset.
func TestVerifyWithMatchesSequential(t *testing.T) {
	c := checker(t)
	gen := nacl.NewGenerator(41)
	rng := rand.New(rand.NewSource(42))
	workerCounts := []int{2, 3, 8, 0}

	check := func(img []byte, ctx string) {
		t.Helper()
		seq := c.VerifyWith(img, core.VerifyOptions{Workers: 1})
		for _, w := range workerCounts {
			par := c.VerifyWith(img, core.VerifyOptions{Workers: w})
			requireSameReport(t, seq, par, ctx)
		}
	}

	// Compliant images, including ones spanning several shards.
	sizes := []int{10, 300, 12000}
	if testing.Short() {
		sizes = []int{10, 300}
	}
	for _, n := range sizes {
		img, err := gen.Random(n)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Verify(img) {
			t.Fatalf("compliant image (%d instructions) rejected", n)
		}
		check(img, "compliant")
		// Tampered variants: flipped bytes (including near shard
		// boundaries) and truncation to a non-bundle length.
		for m := 0; m < 6; m++ {
			mut := append([]byte{}, img...)
			for k := 0; k < 1+rng.Intn(3); k++ {
				mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
			}
			if len(mut) > core.ShardBytes {
				mut[core.ShardBytes-1+rng.Intn(3)] = byte(rng.Intn(256))
			}
			check(mut, "tampered")
			check(mut[:len(mut)-1-rng.Intn(7)], "truncated")
		}
	}

	// The unsafe corpus.
	for name, img := range nacl.UnsafeCorpus() {
		if c.Verify(img) {
			t.Fatalf("unsafe image %q accepted", name)
		}
		check(img, "unsafe:"+name)
	}
}

// TestAnalyzeWithBitmapEquality: on an accepted image the boundary
// bitmap and the masked-pair jump positions (the safety theorem's
// invariant) are identical whichever engine and however many workers
// parsed stage 1.
func TestAnalyzeWithBitmapEquality(t *testing.T) {
	c := checker(t)
	img, err := nacl.NewGenerator(43).Random(12000)
	if err != nil {
		t.Fatal(err)
	}
	v1, p1, rep1 := c.AnalyzeWith(img, core.VerifyOptions{Workers: 1})
	if !rep1.Safe {
		t.Fatalf("image rejected: %v", rep1.Err())
	}
	if rep1.Shards < 2 {
		t.Fatalf("image too small to exercise sharding: %d shards", rep1.Shards)
	}
	pairs := 0
	for _, p := range p1 {
		if p {
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("image has no masked pairs to compare")
	}
	for _, e := range []core.EngineKind{core.EngineFused, core.EngineReference} {
		for _, w := range []int{1, 4} {
			v, p, rep := c.AnalyzeWith(img, core.VerifyOptions{Workers: w, Engine: e})
			if !rep.Safe {
				t.Fatalf("engine %d, %d workers: rejected an accepted image", e, w)
			}
			if !reflect.DeepEqual(v1, v) {
				t.Fatalf("engine %d, %d workers: boundary bitmap differs", e, w)
			}
			if !reflect.DeepEqual(p1, p) {
				t.Fatalf("engine %d, %d workers: masked-pair jump positions differ", e, w)
			}
		}
	}
}

// TestShardBoundaryStraddle: an instruction straddling a shard (and
// hence bundle) boundary is reported at that boundary with the same
// offset sequentially and in parallel — the case where stage 1 must
// stop at its shard end rather than race into its neighbour's range.
func TestShardBoundaryStraddle(t *testing.T) {
	c := checker(t)
	img := make([]byte, 0, core.ShardBytes+core.BundleSize)
	for len(img) < core.ShardBytes-2 {
		img = append(img, 0x90)
	}
	img = append(img, 0xb8, 1, 2, 3, 4) // 5-byte mov straddling the shard end
	for len(img)%core.BundleSize != 0 {
		img = append(img, 0x90)
	}
	seq := c.VerifyWith(img, core.VerifyOptions{Workers: 1})
	if seq.Safe {
		t.Fatal("straddling image accepted")
	}
	if v := seq.First(); v.Offset != core.ShardBytes || v.Kind != core.BundleStraddle {
		t.Fatalf("first violation = %v, want %v at %#x", v, core.BundleStraddle, core.ShardBytes)
	}
	par := c.VerifyWith(img, core.VerifyOptions{Workers: 4})
	requireSameReport(t, seq, par, "shard straddle")
}

// TestReportDiagnostics pins the structured diagnostics for
// representative corpus entries: offset, kind and byte window.
func TestReportDiagnostics(t *testing.T) {
	c := checker(t)
	cases := []struct {
		kind   nacl.UnsafeKind
		offset int
		want   core.ViolationKind
	}{
		{nacl.BareIndirectJump, 0, core.IllegalInstruction},
		{nacl.Syscall, 0, core.IllegalInstruction},
		{nacl.StraddlingBoundary, 32, core.BundleStraddle},
		{nacl.JumpIntoInstruction, 5, core.TargetNotBoundary},
		{nacl.JumpOutOfImage, 0, core.TargetOutOfImage},
		{nacl.ReturnInstruction, 0, core.IllegalInstruction},
	}
	for _, tc := range cases {
		img := nacl.Unsafe(tc.kind)
		rep := c.VerifyWith(img, core.VerifyOptions{Workers: 1})
		if rep.Safe {
			t.Errorf("%v: accepted", tc.kind)
			continue
		}
		v := rep.First()
		if v.Offset != tc.offset || v.Kind != tc.want {
			t.Errorf("%v: first violation %v at %#x, want %v at %#x",
				tc.kind, v.Kind, v.Offset, tc.want, tc.offset)
		}
		if v.Offset < len(img) && len(v.Window) == 0 {
			t.Errorf("%v: violation carries no byte window", tc.kind)
		}
		if v.Error() == "" {
			t.Errorf("%v: empty diagnostic", tc.kind)
		}
	}
}

// TestViolationThroughErrorInterface: the legacy (bool, error) entry
// point now surfaces the structured violation.
func TestViolationThroughErrorInterface(t *testing.T) {
	c := checker(t)
	ok, err := c.VerifyReport(nacl.Unsafe(nacl.BareIndirectJump))
	if ok || err == nil {
		t.Fatal("expected a diagnostic")
	}
	var v *core.Violation
	if !errors.As(err, &v) {
		t.Fatalf("error is %T, want *core.Violation", err)
	}
	if v.Kind != core.IllegalInstruction || v.Offset != 0 {
		t.Fatalf("unexpected violation: %v", v)
	}
}

// TestReportShape covers the bookkeeping fields and edge cases.
func TestReportShape(t *testing.T) {
	c := checker(t)

	// Empty image: vacuously safe, zero shards.
	rep := c.VerifyWith(nil, core.VerifyOptions{Workers: 8})
	if !rep.Safe || rep.Shards != 0 || rep.Total != 0 || rep.Err() != nil || rep.First() != nil {
		t.Fatalf("empty image report: %+v", rep)
	}

	// A single-bundle image occupies one shard; workers clamp to it.
	img := make([]byte, core.BundleSize)
	for i := range img {
		img[i] = 0x90
	}
	rep = c.VerifyWith(img, core.VerifyOptions{Workers: 8})
	if !rep.Safe || rep.Shards != 1 || rep.Workers != 1 {
		t.Fatalf("single-bundle report: %+v", rep)
	}

	// Garbage across several shards: Total counts everything even when
	// the retained list is capped.
	garbage := make([]byte, 3*core.ShardBytes)
	for i := range garbage {
		garbage[i] = 0xc3 // ret: always illegal
	}
	rep = c.VerifyWith(garbage, core.VerifyOptions{Workers: 2})
	if rep.Safe {
		t.Fatal("garbage accepted")
	}
	if len(rep.Violations) > core.MaxReportViolations {
		t.Fatalf("retained %d violations, cap is %d", len(rep.Violations), core.MaxReportViolations)
	}
	if rep.Total < len(rep.Violations) {
		t.Fatalf("Total %d < retained %d", rep.Total, len(rep.Violations))
	}
	if v := rep.First(); v.Offset != 0 {
		t.Fatalf("first violation at %#x, want 0", v.Offset)
	}
}

// TestLaneMaskedCalls pins the lane walk's two stops inside a masked
// pair. The call form (maskedCall) stops the lanes so laneEvent can
// apply the AlignedCalls check. A mask followed by a non-jump
// (83 e0 e0 ff c0, and eax, -32; inc eax, under NaCl-32; each preset's
// own mask otherwise) is two plain instructions, which the lanes learn
// only when the pair dies on its last byte: the resolution rewinds the
// lane to the end of the mask, and the lane is re-walked alone up to
// the lockstep position. Each row places one pattern in a NOP image —
// a full shard (four 4 KiB lanes), nine bundles (four lanes, the last
// with a one-bundle remainder), 256 bytes (four 64-byte lanes) or three
// bundles (one lane) — at the start, middle or end of a lane, or across
// a seam. Further rows place a violation the rewind must diagnose in a
// full shard or in an image's trailing partial bundle. The default
// engine must report exactly what EngineReference reports and restart
// the shard only where the row says: for a misaligned call under
// AlignedCalls; for a mask ending exactly on a lane seam, where the
// lane ends with the pair undecided and its seam bit unset (the
// region-end rule); and for a violation inside a full shard's lanes.
// Each restart hands the shard to the Figure-5 loop. The last rows
// (directJumpRows) place direct jumps, which the lanes end in D and
// check in pass 2, on that pass's seams.
func TestLaneMaskedCalls(t *testing.T) {
	type row struct {
		what          string
		c             *core.Checker
		pat           []byte
		size, off     int
		safe, restart bool
	}
	var rows []row
	q := core.ShardBytes / 4
	for _, aligned := range []bool{false, true} {
		c := checker(t)
		c.AlignedCalls = aligned
		places := [][2]int{{96, 27}, {96, 50}, {256, 59}, {256, 65},
			{core.ShardBytes, q - 5}, {core.ShardBytes, q + 1}, {core.ShardBytes, core.ShardBytes - 5}}
		for _, off := range maskedCallOffsets {
			places = append(places, [2]int{256, off})
		}
		for _, p := range places {
			bad := aligned && (p[1]+len(maskedCall))%core.BundleSize != 0
			rows = append(rows, row{fmt.Sprintf("alignedCalls=%v: masked call", aligned), c, maskedCall, p[0], p[1], !bad, bad})
		}
	}
	checkers, err := fuzzPolicies()
	if err != nil {
		t.Fatal(err)
	}
	masks := map[string][]byte{
		"nacl-32":  {0x83, 0xe0, 0xe0},
		"nacl-16":  {0x83, 0xe0, 0xf0},
		"reins-16": {0x81, 0xe0, 0xf0, 0xff, 0xff, 0x0f},
	}
	for _, c := range checkers {
		name, bundle := c.PolicyInfo().Name, c.PolicyInfo().BundleSize
		mask, ok := masks[name]
		if !ok {
			t.Fatalf("no mask for policy %q", name)
		}
		pair := append(append([]byte{}, mask...), 0xff, 0xc0)
		for _, size := range []int{core.ShardBytes, 9 * bundle, 3 * bundle} {
			lanes := laneSpans(size, bundle)
			for k, l := range lanes {
				rs, re := l[0], l[1]
				places := map[string]int{"start": rs, "middle": rs + (re-rs)/2/bundle*bundle + 1, "end": re - len(pair)}
				if k < len(lanes)-1 {
					places["seam"] = re - len(mask)
				}
				for where, off := range places {
					what := fmt.Sprintf("%s: mask; inc at the %s of lane %d of %d", name, where, k, len(lanes))
					rows = append(rows, row{what, c, pair, size, off, true, where == "seam"})
				}
			}
		}
	}
	// What the rewind diagnoses, under each preset: an illegal byte
	// (ret), a jmp rel32 out of the image and, under AlignedCalls, a
	// direct call to offset 0 that ends off the bundle grid. Mid-lane in
	// a full shard the lanes reject the shard and the Figure-5 loop
	// re-parses it from the start; in the trailing partial bundle of a
	// 9*bundle+7-byte image the lanes prove the nine bundles regular and
	// the loop parses only the tail, so nothing restarts.
	for _, spec := range []policy.Spec{policy.NaCl(), policy.NaCl16(), policy.REINS()} {
		com, err := policy.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := core.NewCheckerFromPolicy(com)
		if err != nil {
			t.Fatal(err)
		}
		strict, err := core.NewCheckerFromPolicy(com)
		if err != nil {
			t.Fatal(err)
		}
		strict.AlignedCalls = true
		bundle := com.Spec.BundleSize
		for _, p := range []struct {
			size, off int
			restart   bool
		}{{core.ShardBytes, q + q/2 + 1, true}, {9*bundle + 7, 9*bundle + 1, false}} {
			call := binary.LittleEndian.AppendUint32([]byte{0xe8}, uint32(-(p.off + 5)))
			for _, d := range []struct {
				what string
				c    *core.Checker
				pat  []byte
			}{
				{"ret", plain, []byte{0xc3}},
				{"jmp rel32 out of the image", plain, []byte{0xe9, 0x00, 0x00, 0x00, 0x40}},
				{"alignedCalls=true: call ending off the bundle grid", strict, call},
			} {
				rows = append(rows, row{fmt.Sprintf("%s: %s", com.Spec.Name, d.what), d.c, d.pat, p.size, p.off, false, p.restart})
			}
		}
	}
	// Direct jumps, which the lanes end in D and check in pass 2.
	reins, err := policy.Compile(policy.REINS())
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range directJumpRows {
		c, err := core.NewChecker()
		if j.reins {
			c, err = core.NewCheckerFromPolicy(reins)
		}
		if err != nil {
			t.Fatal(err)
		}
		c.AlignedCalls = j.aligned
		c.Entries = map[uint32]bool{}
		for _, e := range j.entries {
			c.Entries[e] = true
		}
		what := fmt.Sprintf("%s: alignedCalls=%v: %s", c.PolicyInfo().Name, j.aligned, j.what)
		rows = append(rows, row{what, c, j.pat, j.size, j.off, j.safe, j.restart})
	}
	for _, r := range rows {
		img := bytes.Repeat([]byte{0x90}, r.size)
		copy(img[r.off:], r.pat)
		what := fmt.Sprintf("%s (offset %d of %d)", r.what, r.off, r.size)
		ref := r.c.VerifyWith(img, core.VerifyOptions{Workers: 1, Engine: core.EngineReference})
		got := r.c.VerifyWith(img, core.VerifyOptions{Workers: 1})
		if ref.Safe != r.safe {
			t.Fatalf("%s: reference Safe=%v, want %v: %v", what, ref.Safe, r.safe, ref.Violations)
		}
		if got.Safe != ref.Safe || got.Total != ref.Total || !reflect.DeepEqual(got.Violations, ref.Violations) ||
			got.Stats.EngineInvariant() != ref.Stats.EngineInvariant() {
			t.Fatalf("%s: reports diverged\nref: %+v %+v\ngot: %+v %+v", what, ref.Violations, ref.Stats, got.Violations, got.Stats)
		}
		var want int64
		if r.restart {
			want = 1
		}
		if got.Stats.Restarts != want || got.Stats.LaneBatches != 1-want {
			t.Errorf("%s: %d restarts and %d lane batches, want %d and %d",
				what, got.Stats.Restarts, got.Stats.LaneBatches, want, 1-want)
		}
	}
}

// laneSpans is the lane split of a one-shard image of n bytes, a whole
// number of bundles: four bundle-aligned quarters, the last taking the
// remainder, or a single lane below four bundles.
func laneSpans(n, bundle int) [][2]int {
	q := n / 4 / bundle * bundle
	if q == 0 {
		return [][2]int{{0, n}}
	}
	return [][2]int{{0, q}, {q, 2 * q}, {2 * q, 3 * q}, {3 * q, n}}
}

// TestAlignedCallsParallelParity: the optional strict policy must agree
// across worker counts too (it adds the MisalignedCall violation kind).
func TestAlignedCallsParallelParity(t *testing.T) {
	strict := checker(t)
	strict.AlignedCalls = true
	imgs := [][]byte{
		nacl.Unsafe(nacl.BareIndirectJump),
	}
	b := nacl.NewBuilder()
	b.Label("f")
	b.Call("f") // misaligned call: rejected only under AlignedCalls
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	imgs = append(imgs, img)
	for i, img := range imgs {
		seq := strict.VerifyWith(img, core.VerifyOptions{Workers: 1})
		par := strict.VerifyWith(img, core.VerifyOptions{Workers: 4})
		requireSameReport(t, seq, par, "aligned-calls")
		if i == 1 {
			if seq.Safe {
				t.Fatal("misaligned call accepted by strict checker")
			}
			if v := seq.First(); v.Kind != core.MisalignedCall {
				t.Fatalf("first violation %v, want %v", v.Kind, core.MisalignedCall)
			}
		}
	}
}
