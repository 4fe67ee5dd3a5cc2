package core_test

import (
	"fmt"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/ncval"
)

var bigImg []byte

func getBig(b *testing.B) []byte {
	if bigImg == nil {
		img, err := nacl.NewGenerator(3).Random(120000)
		if err != nil {
			b.Fatal(err)
		}
		bigImg = img
	}
	return bigImg
}

func BenchmarkVerifyBig(b *testing.B) {
	img := getBig(b)
	c, _ := core.NewChecker()
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Verify(img) {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkVerifySmall verifies generated compliant images of about 1,
// 4 and 12 KiB (215 instructions per KiB), five seeds per size, one
// image per iteration in turn: images below one shard, where the
// lanes' fixed costs per parse (the state-buffer copy, pass 2's word
// loop, the pool round trips) weigh most.
func BenchmarkVerifySmall(b *testing.B) {
	c, err := core.NewChecker()
	if err != nil {
		b.Fatal(err)
	}
	for _, kb := range []int{1, 4, 12} {
		var imgs [][]byte
		total := 0
		for seed := int64(1); seed <= 5; seed++ {
			img, err := nacl.NewGenerator(seed).Random(kb * 215)
			if err != nil {
				b.Fatal(err)
			}
			imgs = append(imgs, img)
			total += len(img)
		}
		b.Run(fmt.Sprintf("%dKiB", kb), func(b *testing.B) {
			b.SetBytes(int64(total / len(imgs)))
			for i := 0; i < b.N; i++ {
				if !c.Verify(imgs[i%len(imgs)]) {
					b.Fatal("rejected")
				}
			}
		})
	}
}

func BenchmarkNcvalBig(b *testing.B) {
	img := getBig(b)
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ncval.Validate(img) {
			b.Fatal("rejected")
		}
	}
}
