package core

import (
	"context"
	"encoding/binary"
	"slices"
	"time"

	"rocksalt/internal/flight"
	"rocksalt/internal/vcache"
)

// This file wires the content-addressed verdict cache (internal/vcache)
// into the engine, at the granularity of the whole image:
// VerifyWith/VerifyContext with VerifyOptions.Cache set first look the
// image's content key up; a hit returns a copy of the cached Report
// without scanning a byte. Callers that track content identity
// themselves (a build system, a module registry) can hand the key in via
// VerifyOptions.CacheKey and skip even the hashing pass — that is the
// >100x warm re-verification path. A miss runs the ordinary engine and
// stores its Report. Re-verifying an edited image is VerifyDelta's job
// (delta.go): it re-parses only the chunks the edit touches, where a
// content-addressed lookup would first have to hash every byte.
//
// Soundness rests on the key: a collision-resistant hash (vcache.Sum)
// over everything the verdict depends on — the table fingerprint, the
// policy configuration (AlignedCalls, Entries, the engine parameters),
// the image size and the image's bytes.

// configKey hashes everything except the code bytes that a verdict
// depends on: the fused-table fingerprint and the checker's policy
// knobs — AlignedCalls, the entry whitelist, and the compiled policy's
// engine parameters (bundle size, mask length, guard cutoff). Two
// checkers with equal configKey parse any image identically; checkers
// compiled from different specs never share verdict-cache entries even
// when their tables coincide (e.g. specs differing only in the guard
// cutoff).
//
// A delta round computes it every round, so the key bytes are built in
// stack arrays; only a checker with more than keyEntries entry points
// spills them to the heap.
func (c *Checker) configKey() vcache.Key {
	var cfgBuf [25 + 4*keyEntries]byte
	var entryBuf [keyEntries]uint32
	fp := c.fused.fingerprint()
	cfg := append(cfgBuf[:0], fp[:]...)
	if c.AlignedCalls {
		cfg = append(cfg, 1)
	} else {
		cfg = append(cfg, 0)
	}
	cfg = binary.LittleEndian.AppendUint16(cfg, uint16(c.params.bundle))
	cfg = append(cfg, byte(c.params.maskLen))
	cfg = binary.LittleEndian.AppendUint32(cfg, c.params.guard)
	entries := entryBuf[:0]
	for e, ok := range c.Entries {
		if ok {
			entries = append(entries, e)
		}
	}
	slices.Sort(entries)
	for _, e := range entries {
		cfg = binary.LittleEndian.AppendUint32(cfg, e)
	}
	return vcache.Sum("rocksalt/config", cfg)
}

// keyEntries is how many entry points configKey encodes without
// allocating.
const keyEntries = 16

// fingerprint returns the (memoized) content hash of the fused
// automaton: start, tags and transition rows. It identifies the policy
// tables in cache keys, so checkers loaded from different-but-equal
// bundles share cache entries and different tables never collide.
func (f *fusedDFA) fingerprint() vcache.Key {
	f.fpOnce.Do(func() {
		buf := make([]byte, 0, 8+len(f.tags)+512*len(f.table))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.start))
		buf = append(buf, f.tags...)
		for s := range f.table {
			for b := 0; b < 256; b++ {
				buf = binary.LittleEndian.AppendUint16(buf, f.table[s][b])
			}
		}
		f.fp = vcache.Sum("rocksalt/tables", buf)
	})
	return f.fp
}

// imageKey is the content key of a whole image: the configuration
// key, the image size and the image's bytes.
func (c *Checker) imageKey(code []byte) vcache.Key {
	cfg := c.configKey()
	var size [8]byte
	binary.LittleEndian.PutUint64(size[:], uint64(len(code)))
	return vcache.Sum("rocksalt/image", cfg[:], size[:], code)
}

// verifyCached is VerifyContext's path when a cache is attached.
func (c *Checker) verifyCached(ctx context.Context, code []byte, opts VerifyOptions) *Report {
	lookupStart := time.Now()
	var key vcache.Key
	if opts.CacheKey != nil {
		// The caller vouches that this key identifies (config, image);
		// trusting it is what makes the warm path free of hashing.
		key = *opts.CacheKey
	} else {
		key = c.imageKey(code)
	}
	if v, ok := opts.Cache.Get(key); ok {
		rep := *(v.(*Report))
		rep.Violations = cloneViolations(rep.Violations)
		st := &rep.Stats
		// The cached Report carries the originating run's Stats; a serve
		// scanned no byte with no engine, so the census must say so
		// instead of replaying the stale parse-mode split and timings.
		st.Engine = flight.EngineCache.String()
		st.LaneBatches, st.ScalarFallbacks, st.Restarts = 0, 0, 0
		st.CacheWholeHits = 1
		st.Stage1Wall, st.Stage2Wall, st.JumpsWall = 0, 0, 0
		st.Wall = time.Since(lookupStart)
		publishCacheStats(st)
		if fr := flight.Active(); fr != nil {
			fr.Record(flight.Event{Kind: flight.EventCacheServe, Engine: flight.EngineCache,
				Run: fr.BeginRun(), Start: fr.Now(), Bytes: int64(len(code))})
		}
		return &rep
	}
	uncached := opts
	uncached.Cache = nil
	rep := c.VerifyContext(ctx, code, uncached)
	rep.CacheKey = key.String()
	if !rep.Interrupted() {
		stored := *rep
		stored.Violations = cloneViolations(rep.Violations)
		var t0 int64
		fr := flight.Active()
		if fr != nil {
			t0 = fr.Now()
		}
		opts.Cache.Put(key, &stored, int64(reportSize(&stored)))
		if fr != nil {
			fr.Record(flight.Event{Kind: flight.SpanCacheStore, Engine: flight.EngineCache,
				Start: t0, Dur: fr.Now() - t0, Bytes: int64(len(code))})
		}
	}
	return rep
}

// cloneViolations copies vs down to the Window bytes, so the Report the
// cache holds shares no memory with the reports handed to callers and
// an edit to one cannot change what a later hit serves.
func cloneViolations(vs []Violation) []Violation {
	vs = slices.Clone(vs)
	for i := range vs {
		vs[i].Window = slices.Clone(vs[i].Window)
	}
	return vs
}

// reportSize approximates a Report's retained bytes for the cache's
// capacity accounting.
func reportSize(r *Report) int {
	n := 256
	for i := range r.Violations {
		n += 96 + len(r.Violations[i].Window) + len(r.Violations[i].Detail) + len(r.Violations[i].Stack)
	}
	return n
}
