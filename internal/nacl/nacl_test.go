package nacl_test

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/policy"
	"rocksalt/internal/x86"
)

func TestBuilderBundlePacking(t *testing.T) {
	b := nacl.NewBuilder()
	// 30 one-byte instructions, then a 5-byte one: it must be pushed to
	// the next bundle.
	for i := 0; i < 30; i++ {
		b.Inst(x86.Inst{Op: x86.NOP, W: true})
	}
	b.Inst(x86.Inst{Op: x86.MOV, W: true,
		Args: []x86.Operand{x86.RegOp{Reg: x86.EAX}, x86.Imm{Val: 1}}})
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(img)%core.BundleSize != 0 {
		t.Fatal("image must be a whole number of bundles")
	}
	if img[32] != 0xb8 {
		t.Fatalf("5-byte instruction must start the next bundle, got %#x at 32", img[32])
	}
}

func TestBuilderLabelsAndJumps(t *testing.T) {
	b := nacl.NewBuilder()
	b.Label("start")
	b.Inst(x86.Inst{Op: x86.NOP, W: true})
	b.Jmp("start")
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// jmp at offset 1, rel32 = start(0) - (1+5) = -6.
	if img[1] != 0xe9 {
		t.Fatalf("expected e9 at 1, got %#x", img[1])
	}
	rel := int32(uint32(img[2]) | uint32(img[3])<<8 | uint32(img[4])<<16 | uint32(img[5])<<24)
	if rel != -6 {
		t.Fatalf("rel = %d, want -6", rel)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := nacl.NewBuilder()
	b.Jmp("nowhere")
	if _, err := b.Finish(); err == nil {
		t.Fatal("undefined label must be an error")
	}
}

func TestMaskedCallEndsAtBundleBoundary(t *testing.T) {
	b := nacl.NewBuilder()
	b.Inst(x86.Inst{Op: x86.NOP, W: true})
	b.MaskedCall(x86.ECX)
	img, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// The call (last byte of the pair) must end exactly at a 32-byte
	// boundary: find the pair.
	found := false
	for i := 0; i+5 <= len(img); i++ {
		if img[i] == 0x83 && img[i+3] == 0xff && img[i+4] == 0xd1 {
			if (i+5)%core.BundleSize != 0 {
				t.Fatalf("masked call ends at %d, not a bundle boundary", i+5)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("masked call pair not found")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, err := nacl.NewGenerator(5).Random(50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nacl.NewGenerator(5).Random(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("generator must be deterministic per seed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generator must be deterministic per seed")
		}
	}

	// Per preset, the SHA-256 of three successive Random(n) outputs of
	// a seed-1 generator built the way the benchmark builds its pools.
	// Any change to the sampled grammars' Alt order or to the sampler's
	// draws moves these digests.
	for _, tc := range []struct {
		spec policy.Spec
		want [3]string // Random(50), Random(400), Random(1500)
	}{
		{policy.NaCl(), [3]string{
			"bb950a172a697f85c50556e82d273a086f922e44f97b5a2fc42c981be55c2fb8",
			"f38a2fe1dc611e9988cdc147a4fc831c6292fc3c185564411759ce2aba5f0242",
			"9bcc87165aa6040aa4618e9315fbbc9c08ad2908744c8c06605518acdd9e4c1b",
		}},
		{policy.NaCl16(), [3]string{
			"c97bc3f113f8322e9489c1e7320f286de0b688866d862af00c357743eee7e9ac",
			"b15e1938a934068228222b2773aded054fcf8482130cc6877c3932ed7a5b0d86",
			"dd998b1ab5fcd99cba08f9bd703357ae3d2ec2366d089068afa94840d3045978",
		}},
		{policy.REINS(), [3]string{
			"e009097e903c2b986cdc48b8f151e50097e08f5e44110637158a84e8e6f99053",
			"1d936978c1218f532455d406459bf7f9237b18bb257a6403ebe192670704d79f",
			"e621baf725f6f026052f8c90b78c2cb6f511ed0983201700fcde71afcd86cabb",
		}},
	} {
		norm, err := tc.spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		prof, err := nacl.ProfileForSpec(norm)
		if err != nil {
			t.Fatal(err)
		}
		g := nacl.NewGeneratorFor(1, prof, policy.NoControlFlowGrammar(norm))
		for i, n := range []int{50, 400, 1500} {
			img, err := g.Random(n)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != tc.want[i] {
				t.Errorf("%s: Random(%d) digest %s, want %s", norm.Name, n, got, tc.want[i])
			}
		}
	}
}

func TestUnsafeCorpusComplete(t *testing.T) {
	corpus := nacl.UnsafeCorpus()
	if len(corpus) != int(nacl.NumUnsafeKinds) {
		t.Fatalf("corpus has %d entries, want %d", len(corpus), nacl.NumUnsafeKinds)
	}
	for name, img := range corpus {
		if len(img) == 0 || len(img)%core.BundleSize != 0 {
			t.Errorf("unsafe image %q has bad size %d", name, len(img))
		}
	}
}

func TestGeneratedImageSizes(t *testing.T) {
	gen := nacl.NewGenerator(9)
	img, err := gen.Random(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) < 1000 { // at least one byte per instruction
		t.Fatalf("image too small: %d", len(img))
	}
	if len(img)%core.BundleSize != 0 {
		t.Fatal("image must be bundle aligned")
	}
}
