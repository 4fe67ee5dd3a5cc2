package core

import (
	"context"
	"encoding/binary"
	"slices"
	"sort"
	"time"

	"rocksalt/internal/flight"
	"rocksalt/internal/vcache"
)

// This file wires the content-addressed verdict cache (internal/vcache)
// into the engine, at two granularities:
//
//   - Whole-image: VerifyWith/VerifyContext with VerifyOptions.Cache
//     set first look the image's content key up; a hit returns a copy
//     of the cached Report without scanning a byte. Callers that track
//     content identity themselves (a build system, a module registry)
//     can hand the key in via VerifyOptions.CacheKey and skip even the
//     hashing pass — that is the >100x warm re-verification path.
//   - Per-chunk: on a whole-image miss, the image's aligned 64KiB
//     chunks are individually content-addressed. A chunk hit restores
//     the chunk's parse artifacts — its boundary bitmap words and
//     collected jump targets — and stage 1 skips the chunk's
//     shards; only chunks that actually changed are re-parsed. Stage 2
//     always runs in full, so cross-chunk properties (jump targets,
//     bundle coverage) are re-validated against the current image.
//
// Soundness rests on two facts. Keys are collision-resistant hashes
// (vcache.Sum) over everything the parse depends on: the table
// fingerprint, the policy configuration (AlignedCalls, Entries), the
// image size, and — for chunks — the chunk's offset and bytes plus the
// lookahead overhang past its end (the parse deciding the last
// instruction of a chunk may read up to fusedDFA.lookahead()-1 bytes
// beyond the chunk boundary, so those bytes are part of the parse's
// input and must be part of the key). A shard parse is a pure function
// of exactly those inputs, so a chunk hit replays byte-identical
// artifacts; a final or partial chunk, whose parse could depend on the
// image end, is never cached (chunkEnd < size). Chunks with violations
// are never stored, so replayed chunks are always clean and every
// rejected image re-diagnoses its violating chunks through the
// ordinary engine paths.

// chunkBytes is the chunk-cache granularity: an aligned span of four
// stage-1 shards. Coarse enough that stored artifacts (one bitmap
// slice, ~1/8 of the chunk size) amortize, fine enough that a local
// edit invalidates little.
const chunkBytes = 64 << 10

// chunkShards is how many stage-1 shards one chunk covers.
const chunkShards = chunkBytes / ShardBytes

// chunkEntry is the cached parse artifact of one clean chunk: the
// boundary bitmap words for its bit range, the cross-shard jump
// targets its shards collected, and the in-shard targets already
// proven bad by the stage-1 workers. bad must be
// replayed: a chunk is "clean" when its parse found no shard-local
// violation, but a jump into the middle of an instruction only becomes
// a TargetNotBoundary violation at reconcile — dropping bad would make
// a cached replay accept what a cold run rejects.
type chunkEntry struct {
	valid   []uint64
	targets []int32
	bad     []int32
}

func (e *chunkEntry) size() int64 {
	return int64(8*len(e.valid) + 4*len(e.targets) + 4*len(e.bad))
}

// cacheCtx carries a run's chunk-cache state: the per-chunk keys (index
// i covers bytes [i*chunkBytes, (i+1)*chunkBytes)) and the cache
// itself. keys is truncated to the cacheable prefix — the final chunk,
// whose parse may depend on the image end, is excluded.
type cacheCtx struct {
	cache *vcache.Cache
	keys  []vcache.Key
	// fr/frun are the run's flight recorder and run ID, filled in by
	// run() so probe/store can attribute their events.
	fr   *flight.Recorder
	frun uint32
}

// configKey hashes everything except the code bytes that a verdict
// depends on: the fused-table fingerprint and the checker's policy
// knobs — AlignedCalls, the entry whitelist, and the compiled policy's
// engine parameters (bundle size, mask length, guard cutoff). Two
// checkers with equal configKey parse any image identically; checkers
// compiled from different specs never share verdict-cache entries even
// when their tables coincide (e.g. specs differing only in the guard
// cutoff).
func (c *Checker) configKey() vcache.Key {
	fp := c.fused.fingerprint()
	cfg := make([]byte, 0, 25+4*len(c.Entries))
	cfg = append(cfg, fp[:]...)
	if c.AlignedCalls {
		cfg = append(cfg, 1)
	} else {
		cfg = append(cfg, 0)
	}
	cfg = binary.LittleEndian.AppendUint16(cfg, uint16(c.params.bundle))
	cfg = append(cfg, byte(c.params.maskLen))
	cfg = binary.LittleEndian.AppendUint32(cfg, c.params.guard)
	entries := make([]uint32, 0, len(c.Entries))
	for e, ok := range c.Entries {
		if ok {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i] < entries[j] })
	for _, e := range entries {
		cfg = binary.LittleEndian.AppendUint32(cfg, e)
	}
	return vcache.Sum("rocksalt/config", cfg)
}

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

// cacheableChunks is the number of chunks eligible for caching: whole
// chunks strictly before the image end. The final chunk — even when
// exactly chunk-sized — is excluded because its parse depends on where
// the image ends (the end-of-image straddle allowance). Delta retention
// is not bound by this: a DeltaState keeps the final chunk too, and
// re-parses it whenever the image size moves.
func cacheableChunks(size int) int {
	nchunks := size / chunkBytes
	if nchunks*chunkBytes == size && nchunks > 0 {
		nchunks--
	}
	return nchunks
}

// chunkSum is the content key of one cacheable chunk: the config key,
// the image size, the chunk offset, and the chunk's bytes extended by
// the parse's lookahead overhang past its end (clamped to the image).
// The image size is a genuine input — direct-jump targets are
// classified against it — so equal chunks of different-sized images
// never share entries.
func (c *Checker) chunkSum(cfg vcache.Key, code []byte, i, overhang int) vcache.Key {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(len(code)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(i*chunkBytes))
	end := (i+1)*chunkBytes + overhang
	if end > len(code) {
		end = len(code)
	}
	return vcache.Sum("rocksalt/chunk", cfg[:], hdr[:], code[i*chunkBytes:end])
}

// cacheKeys computes the per-chunk keys for the cacheable prefix of the
// image and the derived whole-image key. The whole-image key is
// hierarchical — the hash of the chunk keys plus the non-cacheable tail
// — so both layers are addressed with a single pass over the content.
func (c *Checker) cacheKeys(code []byte) (whole vcache.Key, chunks []vcache.Key) {
	cfg := c.configKey()
	size := len(code)
	nchunks := cacheableChunks(size)
	overhang := c.fused.lookahead()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(size))
	chunks = make([]vcache.Key, nchunks)
	keyBytes := make([]byte, 0, 16*nchunks)
	for i := range chunks {
		chunks[i] = c.chunkSum(cfg, code, i, overhang)
		keyBytes = append(keyBytes, chunks[i][:]...)
	}
	binary.LittleEndian.PutUint64(hdr[8:], uint64(nchunks*chunkBytes))
	whole = vcache.Sum("rocksalt/image", cfg[:], hdr[:8], keyBytes, code[nchunks*chunkBytes:])
	return whole, chunks
}

// verifyCached is VerifyContext's path when a cache is attached.
func (c *Checker) verifyCached(ctx context.Context, code []byte, opts VerifyOptions) *Report {
	lookupStart := time.Now()
	var whole vcache.Key
	var chunks []vcache.Key
	if opts.CacheKey != nil {
		// The caller vouches that this key identifies (config, image);
		// trusting it is what makes the warm path free of hashing.
		whole = *opts.CacheKey
	} else {
		whole, chunks = c.cacheKeys(code)
	}
	if v, ok := opts.Cache.Get(whole); ok {
		rep := *(v.(*Report))
		rep.Violations = cloneViolations(rep.Violations)
		st := &rep.Stats
		// The cached Report carries the originating run's Stats; a serve
		// scanned no byte with no engine, so the census must say so
		// instead of replaying the stale parse-mode split and timings.
		st.Engine = flight.EngineCache.String()
		st.LaneBatches, st.ScalarFallbacks, st.Restarts = 0, 0, 0
		st.CacheWholeHits = 1
		st.CacheChunkHits, st.CacheChunkMisses = 0, 0
		st.CacheBytesSaved = int64(len(code))
		st.Stage1Wall, st.Stage2Wall, st.JumpsWall = 0, 0, 0
		st.Wall = time.Since(lookupStart)
		publishCacheStats(st)
		if fr := flight.Active(); fr != nil {
			fr.Record(flight.Event{Kind: flight.EventCacheServe, Engine: flight.EngineCache,
				Run: fr.BeginRun(), Start: fr.Now(), Bytes: int64(len(code))})
		}
		return &rep
	}
	if opts.CacheKey != nil {
		_, chunks = c.cacheKeys(code)
	}
	sc := getScratch(len(code), shardCount(len(code)))
	defer putScratch(sc)
	var st Stats
	cc := &cacheCtx{cache: opts.Cache, keys: chunks}
	rep := c.report(c.run(ctx, code, opts, sc, &st, cc), len(code))
	rep.Stats = st
	rep.CacheKey = whole.String()
	if !rep.Interrupted() {
		stored := *rep
		stored.Violations = cloneViolations(rep.Violations)
		var t0 int64
		fr := flight.Active()
		if fr != nil {
			t0 = fr.Now()
		}
		opts.Cache.Put(whole, &stored, int64(reportSize(&stored)))
		if fr != nil {
			fr.Record(flight.Event{Kind: flight.SpanCacheStore, Engine: flight.EngineCache,
				Start: t0, Dur: fr.Now() - t0, Bytes: int64(len(code))})
		}
	}
	publishCacheStats(&rep.Stats)
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

// probeChunks runs before stage 1: it restores the parse artifacts of
// every cacheable chunk with a resident entry, counting each restored
// shard's instructions, and returns the shards left to parse — those of
// every missed chunk and of the uncacheable tail, in order.
func (c *Checker) probeChunks(cc *cacheCtx, sc *scratch, st *Stats) []int {
	list := make([]int, 0, len(sc.results))
	wvalid := sc.valid.Words()
	for i, key := range cc.keys {
		v, ok := cc.cache.Get(key)
		if !ok {
			for s := i * chunkShards; s < (i+1)*chunkShards; s++ {
				list = append(list, s)
			}
			if st != nil {
				st.CacheChunkMisses++
			}
			if cc.fr != nil {
				cc.fr.Record(flight.Event{Kind: flight.EventChunkMiss, Engine: flight.EngineCache,
					Shard: uint32(i * chunkShards), Run: cc.frun, Start: cc.fr.Now(), Bytes: chunkBytes})
			}
			continue
		}
		e := v.(*chunkEntry)
		w0 := i * chunkBytes / 64
		copy(wvalid[w0:w0+len(e.valid)], e.valid)
		res := &sc.results[i*chunkShards]
		res.targets = append(res.targets, e.targets...)
		res.bad = append(res.bad, e.bad...)
		for s := i * chunkShards; s < (i+1)*chunkShards; s++ {
			sc.results[s].insns = int32(sc.valid.CountRange(s*ShardBytes, (s+1)*ShardBytes))
		}
		if st != nil {
			st.CacheChunkHits++
			st.CacheBytesSaved += chunkBytes
		}
		if cc.fr != nil {
			cc.fr.Record(flight.Event{Kind: flight.EventChunkHit, Engine: flight.EngineCache,
				Shard: uint32(i * chunkShards), Run: cc.frun, Start: cc.fr.Now(), Bytes: chunkBytes})
		}
	}
	for s := len(cc.keys) * chunkShards; s < len(sc.results); s++ {
		list = append(list, s)
	}
	return list
}

// storeChunks runs after a completed stage 1 and banks every cacheable
// chunk this run parsed — its first shard is in list — that chunkClean
// passes.
func (c *Checker) storeChunks(cc *cacheCtx, sc *scratch, list []int) {
	var ft0 int64
	if cc.fr != nil {
		ft0 = cc.fr.Now()
	}
	var storedBytes int64
	for _, s := range list {
		if i := s / chunkShards; s%chunkShards == 0 && i < len(cc.keys) && chunkClean(sc, i) {
			storeChunk(cc.cache, cc.keys[i], sc, i)
			storedBytes += chunkBytes
		}
	}
	if cc.fr != nil {
		cc.fr.Record(flight.Event{Kind: flight.SpanCacheStore, Engine: flight.EngineCache,
			Run: cc.frun, Start: ft0, Dur: cc.fr.Now() - ft0, Bytes: storedBytes})
	}
}

// chunkClean reports whether chunk i of sc parsed without a shard-local
// violation. It is the one reuse rule: the cache stores only clean
// chunks and a delta round replays only clean ones, so a violating
// chunk is re-parsed every time it is verified and no verdict is ever
// assembled from stale violations.
func chunkClean(sc *scratch, i int) bool {
	for s := i * chunkShards; s < (i+1)*chunkShards && s < len(sc.results); s++ {
		if len(sc.results[s].violations) > 0 {
			return false
		}
	}
	return true
}

// storeChunk banks whole chunk i of sc in cache under key: its bitmap
// words, the cross-shard targets its shards collected and the in-shard
// targets they proved bad.
func storeChunk(cache *vcache.Cache, key vcache.Key, sc *scratch, i int) {
	rs := sc.results[i*chunkShards : (i+1)*chunkShards]
	var ntargets, nbad int
	for s := range rs {
		ntargets += len(rs[s].targets)
		nbad += len(rs[s].bad)
	}
	w0, w1 := i*chunkBytes/64, (i+1)*chunkBytes/64
	e := &chunkEntry{
		valid:   append([]uint64(nil), sc.valid.Words()[w0:w1]...),
		targets: make([]int32, 0, ntargets),
		bad:     make([]int32, 0, nbad),
	}
	for s := range rs {
		e.targets = append(e.targets, rs[s].targets...)
		e.bad = append(e.bad, rs[s].bad...)
	}
	cache.Put(key, e, e.size())
}
