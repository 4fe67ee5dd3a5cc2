package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/policy"
	"rocksalt/internal/vcache"
)

// compiledChecker compiles a spec and wraps it in a checker, failing
// the test on any error.
func compiledChecker(t *testing.T, spec policy.Spec) (*core.Checker, *policy.Compiled) {
	t.Helper()
	com, err := policy.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCheckerFromPolicy(com)
	if err != nil {
		t.Fatal(err)
	}
	return c, com
}

// policyImage generates a compliant image for the given compiled
// policy.
func policyImage(t *testing.T, com *policy.Compiled, seed int64, insns int) []byte {
	t.Helper()
	prof, err := nacl.ProfileForSpec(com.Spec)
	if err != nil {
		t.Fatal(err)
	}
	img, err := nacl.NewGeneratorFor(seed, prof, com.SafeGrammar).Random(insns)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestRuntimeDefaultMatchesEmbedded is the regeneration guard: the
// runtime policy compiler, fed the default NaCl spec, must reproduce
// the embedded table bundle byte for byte, exactly as cmd/dfagen
// writes it. A failure means someone changed the grammars (or the
// fusion/serialization) without re-running
//
//	go run ./cmd/dfagen -o internal/core/rocksalt_tables.bin
func TestRuntimeDefaultMatchesEmbedded(t *testing.T) {
	com, err := policy.CompileDefault()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(writeBundle(t, com), core.EmbeddedTableBytes()) {
		t.Fatal("embedded table bundle is stale: re-run 'go run ./cmd/dfagen -o internal/core/rocksalt_tables.bin'")
	}
}

// TestRuntimeSixteenByteTablesPinned holds the 16-byte presets' runtime
// tables byte for byte, as TestRuntimeDefaultMatchesEmbedded holds the
// default's: a change to hash-consing, Strip or the decoder grammar can
// leave their state and class counts unchanged and still move a
// transition. The digests are the SHA-256 of the serialized bundle.
func TestRuntimeSixteenByteTablesPinned(t *testing.T) {
	for _, tc := range []struct {
		spec policy.Spec
		want string
	}{
		{policy.NaCl16(), "0f06fb4837a98c100baedec1c868b9f95a5b82f5518a81019b9224510b8efe2e"},
		{policy.REINS(), "39684a386e7c287851dd3d6ca6da198c0700b1de62789ae5c587e57d89559733"},
	} {
		com, err := policy.Compile(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(writeBundle(t, com))); got != tc.want {
			t.Errorf("%s: table bundle digest %s, want %s", tc.spec.Name, got, tc.want)
		}
	}
}

// TestPolicyInfo pins the engine parameters each construction path
// reports.
func TestPolicyInfo(t *testing.T) {
	def, err := core.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	if info := def.PolicyInfo(); info.Name != "nacl-32" || info.BundleSize != 32 || info.MaskLen != 3 || info.GuardCutoff != 0 {
		t.Fatalf("default PolicyInfo = %+v", info)
	}
	reins, _ := compiledChecker(t, policy.REINS())
	if info := reins.PolicyInfo(); info.Name != "reins-16" || info.BundleSize != 16 || info.MaskLen != 6 || info.GuardCutoff != 1<<16 {
		t.Fatalf("REINS PolicyInfo = %+v", info)
	}
}

// writeBundle serializes a compiled policy as a table bundle, the way
// cmd/dfagen does.
func writeBundle(t *testing.T, com *policy.Compiled) []byte {
	t.Helper()
	set := &core.DFASet{
		MaskedJump:    com.MaskedJump,
		NoControlFlow: com.NoControlFlow,
		DirectJump:    com.DirectJump,
	}
	info := core.PolicyInfo{
		Name:        com.Spec.Name,
		BundleSize:  com.Spec.BundleSize,
		MaskLen:     com.Spec.MaskLen(),
		GuardCutoff: com.Spec.GuardCutoff,
	}
	var buf bytes.Buffer
	if err := set.WriteTables(&buf, info, com.Spec.AlignedCalls); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTableRoundTripV4 holds a checker loaded from a bundle identical
// to the runtime-compiled one it was serialized from: same reported
// policy parameters, same verdicts over compliant images, mutants and
// the unsafe corpus. The V4 in its name is the format version that
// introduced the parameter block; it runs on RSLT5.
func TestTableRoundTripV4(t *testing.T) {
	for _, spec := range []policy.Spec{policy.NaCl16(), policy.REINS()} {
		fresh, com := compiledChecker(t, spec)
		loaded, err := core.NewCheckerFromTables(bytes.NewReader(writeBundle(t, com)))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if loaded.PolicyInfo() != fresh.PolicyInfo() {
			t.Fatalf("%s: loaded PolicyInfo %+v, fresh %+v", spec.Name, loaded.PolicyInfo(), fresh.PolicyInfo())
		}
		img := policyImage(t, com, 91, 400)
		if !fresh.Verify(img) || !loaded.Verify(img) {
			t.Fatalf("%s: compliant image rejected (fresh %v, loaded %v)", spec.Name, fresh.Verify(img), loaded.Verify(img))
		}
		mut := append([]byte(nil), img...)
		mut[17] ^= 0xff
		if fresh.Verify(mut) != loaded.Verify(mut) {
			t.Fatalf("%s: fresh and loaded checkers disagree on a mutant", spec.Name)
		}
		for name, bad := range nacl.UnsafeCorpus() {
			if fresh.Verify(bad) != loaded.Verify(bad) {
				t.Fatalf("%s: fresh and loaded checkers disagree on unsafe %s", spec.Name, name)
			}
		}
	}
}

// TestV4ParamValidation: corrupted or implausible parameter blocks
// (introduced by RSLT4, unchanged in RSLT5) must fail closed at the
// loader with a message naming the problem.
func TestV4ParamValidation(t *testing.T) {
	com, err := policy.Compile(policy.NaCl16())
	if err != nil {
		t.Fatal(err)
	}
	good := writeBundle(t, com)

	load := func(b []byte) error {
		_, err := core.NewCheckerFromTables(bytes.NewReader(b))
		return err
	}
	if err := load(good); err != nil {
		t.Fatalf("pristine bundle rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(b []byte)
		want   string
	}{
		// Offsets: 6-byte magic, then u16 bundle, u8 maskLen, u8 flags,
		// u32 guard, u16 nameLen, name, u32 CRC.
		{"flipped-bundle", func(b []byte) { b[6] ^= 0x01 }, "checksum mismatch"},
		{"flipped-name", func(b []byte) { b[16] ^= 0x20 }, "checksum mismatch"},
		{"huge-name", func(b []byte) { b[14] = 0xff; b[15] = 0xff }, "name length"},
		{"truncated", func(b []byte) {}, ""}, // handled below
	}
	for _, tc := range cases[:3] {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			tc.mutate(b)
			err := load(b)
			if err == nil {
				t.Fatal("corrupted parameter block loaded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	t.Run("truncated", func(t *testing.T) {
		if err := load(good[:10]); err == nil {
			t.Fatal("truncated parameter block loaded")
		}
	})

	// Implausible-but-CRC-valid parameters: serialize them through the
	// writer itself (which does not validate) and require the reader to
	// refuse.
	set := &core.DFASet{
		MaskedJump:    com.MaskedJump,
		NoControlFlow: com.NoControlFlow,
		DirectJump:    com.DirectJump,
	}
	for _, tc := range []struct {
		name string
		info core.PolicyInfo
		want string
	}{
		{"bundle-not-pow2", core.PolicyInfo{Name: "x", BundleSize: 24, MaskLen: 3}, "bundle size"},
		{"bundle-too-big", core.PolicyInfo{Name: "x", BundleSize: 8192, MaskLen: 3}, "bundle size"},
		{"masklen-zero", core.PolicyInfo{Name: "x", BundleSize: 32, MaskLen: 0}, "mask length"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := set.WriteTables(&buf, tc.info, false); err != nil {
				t.Fatal(err)
			}
			err := load(buf.Bytes())
			if err == nil {
				t.Fatal("implausible parameters loaded")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestPolicyCacheSeparation: checkers compiled from different specs
// must never share verdict-cache entries over the same image, even
// through one shared cache — the configuration key separates them. The
// CacheKey fast path inherits the separation because the keys
// themselves differ.
func TestPolicyCacheSeparation(t *testing.T) {
	nacl16, com16 := compiledChecker(t, policy.NaCl16())
	// A guard-only variant: same tables as nacl-16, different engine
	// parameters — the sharpest separation case.
	guarded := policy.NaCl16()
	guarded.Name = "nacl-16-guarded"
	guarded.GuardCutoff = 1 << 16
	gchk, _ := compiledChecker(t, guarded)

	img := policyImage(t, com16, 7, 4200)
	cache := vcache.New(64 << 20)
	opts := core.VerifyOptions{Workers: 1, Cache: cache}

	rep16 := nacl16.VerifyWith(img, opts)
	if !rep16.Safe || rep16.Stats.CacheWholeHits != 0 {
		t.Fatalf("first nacl-16 run: %+v", rep16.Stats)
	}
	warm16 := nacl16.VerifyWith(img, opts)
	if warm16.Stats.CacheWholeHits != 1 {
		t.Fatal("second nacl-16 run missed its own cache entry")
	}

	repG := gchk.VerifyWith(img, opts)
	if repG.Stats.CacheWholeHits != 0 {
		t.Fatal("guarded-policy checker hit the nacl-16 whole-image entry")
	}
	if repG.CacheKey == rep16.CacheKey {
		t.Fatal("different specs produced the same cache key; the CacheKey fast path would alias them")
	}

	// The keyed fast path still works within one policy.
	key, err := vcache.ParseKey(rep16.CacheKey)
	if err != nil {
		t.Fatal(err)
	}
	kopts := opts
	kopts.CacheKey = &key
	if nacl16.VerifyWith(img, kopts).Stats.CacheWholeHits != 1 {
		t.Fatal("keyed fast path missed within the same policy")
	}
}
