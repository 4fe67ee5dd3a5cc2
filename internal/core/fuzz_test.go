package core_test

import (
	"bytes"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/ncval"
)

// FuzzCheckerAgreement feeds arbitrary byte strings to both validators:
// any verdict disagreement is a bug in one of them (this is exactly how
// the paper argues for its own testing — "we verified that our driver
// and Google's always agreed on a program's safety"). Run with
//
//	go test -fuzz FuzzCheckerAgreement ./internal/core
func FuzzCheckerAgreement(f *testing.F) {
	// Seeds: compliant images, the unsafe corpus, tricky fragments.
	gen := nacl.NewGenerator(123)
	for i := 0; i < 8; i++ {
		img, err := gen.Random(10)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	for _, img := range nacl.UnsafeCorpus() {
		f.Add(img)
	}
	f.Add([]byte{0x83, 0xe0, 0xe0, 0xff, 0xe0})
	// Regressions from three-way fuzzing: ENTER with a non-zero nesting
	// level (safe: it faults), and REPNE on a non-string op (illegal).
	f.Add(append([]byte{0xc8, 0xa0, 0x65, 0xc5}, make([]byte, 28)...))
	f.Add(append([]byte{0xf2, 0x0f, 0x1f, 0x84, 0, 0, 0, 0, 0}, make([]byte, 23)...))
	f.Add([]byte{0x66, 0x90, 0xf3, 0xa4, 0xeb, 0x00})
	f.Add(bytes.Repeat([]byte{0x90}, 32))
	// One compliant image of three shards: the generator's direct jumps
	// land on any earlier bundle start, so this seed's mutants reach
	// jumps across shard boundaries.
	multi, err := nacl.NewGenerator(124).Random(8000)
	if err != nil {
		f.Fatal(err)
	}
	if len(multi) <= 2*core.ShardBytes || len(multi) > 1<<16 {
		f.Fatalf("multi-shard seed of %d bytes, want three or four shards", len(multi))
	}
	f.Add(multi)

	c, err := core.NewChecker()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) > 1<<16 {
			t.Skip()
		}
		a := c.Verify(img)
		b := ncval.Validate(img)
		if a != b {
			t.Fatalf("checker disagreement on % x: rocksalt=%v ncval=%v", img, a, b)
		}
	})
}
