package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"rocksalt/internal/core"
	"rocksalt/internal/flight"
	"rocksalt/internal/nacl"
	"rocksalt/internal/ncval"
	"rocksalt/internal/telemetry"
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

// BenchmarkVerifyObserved is BenchmarkVerifyBig with an observability
// layer on: global telemetry enabled, or a flight recorder installed.
// Set beside BenchmarkVerifyBig, it reads the layer's overhead on the
// lean path; both globals are restored afterwards.
func BenchmarkVerifyObserved(b *testing.B) {
	img := getBig(b)
	c, _ := core.NewChecker()
	defer telemetry.SetEnabled(telemetry.Enabled())
	defer flight.SetGlobal(flight.Active())
	for _, layer := range []struct {
		name      string
		telemetry bool
		recorder  *flight.Recorder
	}{
		{"telemetry", true, nil},
		{"recorder", false, flight.NewRecorder(0)},
	} {
		b.Run(layer.name, func(b *testing.B) {
			telemetry.SetEnabled(layer.telemetry)
			flight.SetGlobal(layer.recorder)
			b.SetBytes(int64(len(img)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !c.Verify(img) {
					b.Fatal("rejected")
				}
			}
		})
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

// BenchmarkVerifyDelta is one VerifyDelta round on a 16 MiB image
// after a 4 KiB slot rewrite, at one worker and at default workers. The
// image tiles a generated unit padded to the slot, so every jump stays
// in its slot, and each iteration writes the other of two compliant
// contents into one mid-image slot, so every round re-parses that
// slot's chunk (four shards) and replays the other 255. Set side by
// side, the two read what starting the pool costs a round that small.
func BenchmarkVerifyDelta(b *testing.B) {
	c, err := core.NewChecker()
	if err != nil {
		b.Fatal(err)
	}
	const slot = 4 << 10
	var contents [2][]byte
	for i := range contents {
		unit, err := nacl.NewGenerator(int64(21 + i)).Random(700)
		if err != nil {
			b.Fatal(err)
		}
		if len(unit) > slot {
			b.Fatalf("unit of %d bytes does not fit a %d-byte slot", len(unit), slot)
		}
		contents[i] = append(unit, bytes.Repeat([]byte{0x90}, slot-len(unit))...)
	}
	for _, w := range []struct {
		name string
		opts core.VerifyOptions
	}{
		{"workers=1", core.VerifyOptions{Workers: 1}},
		{"workers=default", core.VerifyOptions{}},
	} {
		b.Run(w.name, func(b *testing.B) {
			img := bytes.Repeat(contents[0], (16<<20)/slot)
			off := len(img)/2 + 3*slot
			edit := []core.Range{{Off: off, Len: slot}}
			_, state, err := c.VerifyDeltaWith(img, nil, nil, w.opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(img[off:], contents[(i+1)%2])
				var rep *core.Report
				rep, state, err = c.VerifyDeltaWith(img, edit, state, w.opts)
				if err != nil || !rep.Safe {
					b.Fatalf("delta round: safe=%v err=%v", rep != nil && rep.Safe, err)
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
