package core_test

import (
	"sync"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/policy"
)

// fuzzPolicies are the runtime-compiled checkers FuzzPolicyEquiv holds
// to engine equivalence, compiled once per process.
var fuzzPolicies = sync.OnceValues(func() ([]*core.Checker, error) {
	var out []*core.Checker
	for _, spec := range []policy.Spec{policy.NaCl(), policy.NaCl16(), policy.REINS()} {
		com, err := policy.Compile(spec)
		if err != nil {
			return nil, err
		}
		c, err := core.NewCheckerFromPolicy(com)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
})

// FuzzPolicyEquiv extends the engine-equivalence property to
// runtime-compiled policies: for each shipped policy (NaCl-32,
// NaCl-16, REINS-style), the reference three-DFA loop, the scalar
// fused walk and the default lane walk must produce byte-identical
// reports on arbitrary inputs, both as given (mostly under four
// bundles: the single-lane walk) and embedded in a NOP frame (the
// four-lane lockstep walk, its seams at the same offsets under every
// bundle size). This is the executable statement that
// the engine parameterization (bundle size, mask length, guard cutoff)
// is threaded identically through every engine. Run longer with
//
//	go test -fuzz FuzzPolicyEquiv ./internal/core
func FuzzPolicyEquiv(f *testing.F) {
	checkers, err := fuzzPolicies()
	if err != nil {
		f.Fatal(err)
	}
	// Seeds: each policy's own compliant images plus cross-policy pairs
	// and the unsafe corpus, so every checker sees both its accept and
	// reject paths.
	for i, spec := range []policy.Spec{policy.NaCl(), policy.NaCl16(), policy.REINS()} {
		com, err := policy.Compile(spec)
		if err != nil {
			f.Fatal(err)
		}
		prof, err := nacl.ProfileForSpec(com.Spec)
		if err != nil {
			f.Fatal(err)
		}
		img, err := nacl.NewGeneratorFor(int64(61+i), prof, com.SafeGrammar).Random(120)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	for _, img := range nacl.UnsafeCorpus() {
		f.Add(img)
	}
	f.Add([]byte{0x83, 0xe0, 0xe0, 0xff, 0xe0})                   // nacl-32 pair (wrong mask under nacl-16)
	f.Add([]byte{0x83, 0xe0, 0xf0, 0xff, 0xe0})                   // nacl-16 pair (wrong mask under nacl-32)
	f.Add([]byte{0x81, 0xe0, 0xf0, 0xff, 0xff, 0x0f, 0xff, 0xe0}) // reins pair
	f.Add([]byte{0xa4})                                           // movs: safe for nacl, banned by reins
	f.Add([]byte{0xe9, 0x00, 0x10, 0x00, 0x00})                   // direct jump out of image

	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) > 1<<20 {
			t.Skip()
		}
		for _, c := range checkers {
			for _, embed := range []bool{false, true} {
				engineEquiv(t, c, img, embed, c.PolicyInfo().Name)
			}
		}
	})
}
