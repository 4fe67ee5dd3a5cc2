package main

import (
	"fmt"
	"time"

	"rocksalt/internal/core"
	"rocksalt/internal/nacl"
	"rocksalt/internal/vcache"
)

// benchStride times the content-addressed verdict cache's two hit
// paths on the scale image: a rehash hit (hash every byte, then probe
// the whole-image entry) and a keyed hit (the caller holds the key
// from a prior Report, so the call is a map probe). bench/ has no
// cache workload, so this is where the hits are measured; the verdict
// fails if any warm run misses the cache.
func benchStride() {
	header("stride", "verdict-cache hits (extension)",
		"beyond the paper: content-addressed re-verification")

	c, err := core.NewChecker()
	if err != nil {
		panic(err)
	}
	n := 400000
	rounds := 30
	if *quick {
		n, rounds = 40000, 8
	}
	img, err := nacl.NewGenerator(3).Random(n)
	if err != nil {
		panic(err)
	}
	mb := float64(len(img)) / 1e6

	cache := vcache.New(256 << 20)
	copts := core.VerifyOptions{Workers: 1, Cache: cache}
	rep := c.VerifyWith(img, copts)
	if !rep.Safe || rep.CacheKey == "" {
		panic("cached verification failed")
	}
	key, err := vcache.ParseKey(rep.CacheKey)
	if err != nil {
		panic(err)
	}
	misses := 0
	hit := func(opts core.VerifyOptions) time.Duration {
		return bestOf(rounds, func() {
			if c.VerifyWith(img, opts).Stats.CacheWholeHits != 1 {
				misses++
			}
		})
	}
	rehash := hit(copts)
	kopts := copts
	kopts.CacheKey = &key
	keyed := hit(kopts)
	fmt.Printf("   image: %d bytes, best of %d rounds\n", len(img), rounds)
	fmt.Printf("   %-22s %12.0f ns/op %9.1f MB/s\n", "rehash hit", float64(rehash.Nanoseconds()), mb/rehash.Seconds())
	fmt.Printf("   %-22s %12.0f ns/op\n", "keyed hit", float64(keyed.Nanoseconds()))
	fmt.Printf("   verdict: %s (every warm run hit the cache)\n", pass(misses == 0))
}
