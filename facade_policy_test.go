package rocksalt_test

import (
	"testing"

	"rocksalt"
	"rocksalt/internal/nacl"
	"rocksalt/internal/policy"
)

// TestCompilePolicyEndToEnd exercises the public policy-compiler
// surface on the two shipped non-default policies: each verifies its
// own generated corpus and rejects images that are compliant only
// under a different policy — the wrong-mask pair for NaCl-16, and the
// imm8 pair, a string instruction and a guard-region jump for REINS.
func TestCompilePolicyEndToEnd(t *testing.T) {
	bundlePad := func(bundle int, code ...byte) []byte {
		out := append([]byte{}, code...)
		for len(out)%bundle != 0 {
			out = append(out, 0x90)
		}
		return out
	}

	t.Run("nacl-16", func(t *testing.T) {
		chk, err := rocksalt.CompilePolicy(policy.NaCl16())
		if err != nil {
			t.Fatal(err)
		}
		com, err := policy.Compile(policy.NaCl16())
		if err != nil {
			t.Fatal(err)
		}
		prof, err := nacl.ProfileForSpec(com.Spec)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 3; seed++ {
			img, err := nacl.NewGeneratorFor(100+seed, prof, com.SafeGrammar).Random(500)
			if err != nil {
				t.Fatal(err)
			}
			if ok, verr := chk.VerifyReport(img); !ok {
				t.Fatalf("seed %d: compliant nacl-16 image rejected: %v", seed, verr)
			}
		}
		// The nacl-32 pair masks with 0xe0, which only guarantees 32-byte
		// alignment: under the 16-byte policy the AND parses as an
		// ordinary safe instruction and the bare JMP behind it is illegal.
		if chk.Verify(bundlePad(16, 0x83, 0xe0, 0xe0, 0xff, 0xe0)) {
			t.Fatal("nacl-16 accepted a 0xe0-masked pair")
		}
		// Its own 0xf0 pair is of course fine.
		if !chk.Verify(bundlePad(16, 0x83, 0xe0, 0xf0, 0xff, 0xe0)) {
			t.Fatal("nacl-16 rejected its own masked pair")
		}
		// And the straddle rule now bites at 16, not 32: an 8-byte unit
		// crossing offset 16 is a violation.
		straddler := append(bundlePad(16, 0x90)[:12], 0xb8, 1, 2, 3, 4, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90)
		if chk.Verify(straddler) {
			t.Fatal("nacl-16 accepted an instruction straddling a 16-byte boundary")
		}
	})

	t.Run("reins-16", func(t *testing.T) {
		chk, err := rocksalt.CompilePolicy(policy.REINS())
		if err != nil {
			t.Fatal(err)
		}
		com, err := policy.Compile(policy.REINS())
		if err != nil {
			t.Fatal(err)
		}
		prof, err := nacl.ProfileForSpec(com.Spec)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 3; seed++ {
			img, err := nacl.NewGeneratorFor(200+seed, prof, com.SafeGrammar).Random(500)
			if err != nil {
				t.Fatal(err)
			}
			if ok, verr := chk.VerifyReport(img); !ok {
				t.Fatalf("seed %d: compliant reins image rejected: %v", seed, verr)
			}
		}
		// REINS masks with a 32-bit immediate; the NaCl imm8 pair does
		// not match its pair grammar, leaving a bare indirect jump.
		if chk.Verify(bundlePad(16, 0x83, 0xe0, 0xf0, 0xff, 0xe0)) {
			t.Fatal("reins accepted an imm8-masked pair")
		}
		// Its own imm32 pair (AND eax, 0x0ffffff0; JMP eax) is fine.
		if !chk.Verify(bundlePad(16, 0x81, 0xe0, 0xf0, 0xff, 0xff, 0x0f, 0xff, 0xe0)) {
			t.Fatal("reins rejected its own masked pair")
		}
		// String operations are banned by the spec: MOVS is an illegal
		// instruction under REINS but safe under NaCl.
		movs := bundlePad(16, 0xa4)
		if chk.Verify(movs) {
			t.Fatal("reins accepted a banned string instruction")
		}
		def, err := rocksalt.NewChecker()
		if err != nil {
			t.Fatal(err)
		}
		if !def.Verify(bundlePad(32, 0xa4)) {
			t.Fatal("default policy rejected MOVS; the banned-class test is vacuous")
		}
		// Out-of-image targets inside the guard region are rejected even
		// when whitelisted as entry points; above the cutoff the
		// whitelist works as usual.
		low, high := uint32(0x8000), uint32(0x20000) // below and above the 64 KiB cutoff
		jmpOut := func(target uint32) []byte {
			rel := target - 5 // e9 at offset 0, next instruction at 5
			return bundlePad(16, 0xe9, byte(rel), byte(rel>>8), byte(rel>>16), byte(rel>>24))
		}
		chk.Entries = map[uint32]bool{low: true, high: true}
		if chk.Verify(jmpOut(low)) {
			t.Fatal("reins accepted a direct jump into the guard region")
		}
		if ok, verr := chk.VerifyReport(jmpOut(high)); !ok {
			t.Fatalf("reins rejected a whitelisted above-guard entry: %v", verr)
		}
	})
}

// TestParsePolicySpecFacade pins the public JSON entry point, including
// the error paths the CLI's exit code 2 rests on.
func TestParsePolicySpecFacade(t *testing.T) {
	spec, err := rocksalt.ParsePolicySpec([]byte(`{"name":"tiny","bundle_size":64,"aligned_calls":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "tiny" || spec.BundleSize != 64 || !spec.AlignedCalls {
		t.Fatalf("parsed spec: %+v", spec)
	}
	chk, err := rocksalt.CompilePolicy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info := chk.PolicyInfo(); info.BundleSize != 64 {
		t.Fatalf("compiled policy info: %+v", info)
	}
	for _, bad := range []string{
		`{"bundle_size":24}`, // not a power of two
		`{"bundle_size":16,"mask_regs":["ebx"],"scratch_regs":["ebx"]}`, // contradictory
		`{"bundle_size":16,"frobnicate":1}`,                             // unknown field
		`not json`,
	} {
		if _, err := rocksalt.ParsePolicySpec([]byte(bad)); err == nil {
			t.Errorf("spec %s accepted", bad)
		}
	}
}

// TestCompiledPolicyLeanAlloc holds the allocation-free property of the
// lean Verify path on a runtime-compiled non-default policy.
func TestCompiledPolicyLeanAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the bound only holds in normal builds")
	}
	chk, err := rocksalt.CompilePolicy(policy.NaCl16())
	if err != nil {
		t.Fatal(err)
	}
	com, err := policy.Compile(policy.NaCl16())
	if err != nil {
		t.Fatal(err)
	}
	prof, err := nacl.ProfileForSpec(com.Spec)
	if err != nil {
		t.Fatal(err)
	}
	img, err := nacl.NewGeneratorFor(300, prof, com.SafeGrammar).Random(2000)
	if err != nil {
		t.Fatal(err)
	}
	if !chk.Verify(img) {
		t.Fatal("benchmark image rejected")
	}
	if allocs := testing.AllocsPerRun(20, func() { chk.Verify(img) }); allocs != 0 {
		t.Fatalf("lean Verify on a compiled policy allocates %.1f times per op", allocs)
	}
}
