package main

import (
	"fmt"
	"math/rand"

	"rocksalt/internal/core"
	"rocksalt/internal/policy"
)

// workload is one kind of traffic. Its op sequence is a pure function of
// the seed; every op makes exactly one public call into the checker,
// and the benchmark times only that call.
type workload interface {
	// next plans the following op of the sequence and materializes its
	// input.
	next()
	// poison plans an op outside the sequence whose input holds one
	// poison bundle, for the rejection check after the timed phase. The
	// next op repairs the input where it persists across ops.
	poison()
	// call makes the op's public call.
	call() (*core.Report, error)
	// expect is the op's known answer: poison is -1 for a safe image,
	// else the offset of the poison bundle of the given size.
	expect() (poison, bundle int)
	// op describes the op for the metrics.
	op() opInfo
	// reset returns to the initial state and the start of the sequence.
	reset() error
	// minWarmup is the least number of warm-up ops, so that the timed
	// phase starts in the workload's steady state.
	minWarmup() int
	// maxEvents bounds the flight events one call records on one ring.
	maxEvents() int
}

// opInfo describes the op just run.
type opInfo struct {
	bytes  int64 // image bytes the verdict covers
	edited int64 // bytes written by a delta round
	wait   int64 // nanoseconds inside the stream source's Read
}

// scale shrinks the workloads: div divides every image size and
// poolUnits sets the units generated per preset. The benchmark runs at
// fullScale; the tests run at a tiny scale.
type scale struct {
	div       int
	poolUnits int
}

var fullScale = scale{div: 1, poolUnits: 48}

func (s scale) size(n int) int {
	n = n / s.div &^ 63
	if n < 1024 {
		n = 1024
	}
	return n
}

// mix derives an independent sub-seed (splitmix64 finalizer).
func mix(seed int64, k uint64) int64 {
	z := uint64(seed) + k*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// Sub-seed streams.
const (
	streamPool = iota + 1
	streamImages
	streamOps
)

const (
	kib = 1 << 10
	mib = 1 << 20
)

// Every workload has one input shape and one image size, so its metrics
// average over identical ops and no traffic mix has to be guessed. The
// sizes are coverage choices, not a model of real modules. A 1 MiB image
// is 64 stage-1 shards, so both workers stay busy, and each worker's
// half stays inside its core's private 2 MiB L2 on the measurement
// host. Images of 16 MiB spilled into the L3 shared with other tenants,
// and their latency followed the neighbours' load (README.md).
const (
	coldSize   = 1 * mib  // dense, sparse and dense16 images
	coldLen    = 64       // images per cold catalog
	streamSize = 4 * mib  // VerifyReader keeps a 128 KiB window, so larger
	streamLen  = 16       // images still exercise the window's refills
	jitSize    = 64 * mib // the region size of the ROADMAP's delta question
	jitSlot    = 4 * kib  // and its edit size
	rejectOps  = 4        // poisoned inputs per run (rejection check)
)

// workloadNames lists the workloads in the order `all` runs them.
var workloadNames = []string{"dense", "sparse", "dense16", "jit-edit", "stream"}

// workloadPreset is the policy preset a workload's images follow.
func workloadPreset(name string) string {
	if name == "dense16" {
		return "nacl-16"
	}
	return "nacl-32"
}

// newChecker builds a preset's checker: nacl-32 from the embedded
// tables, the other presets compiled at run time.
func newChecker(preset string) (*core.Checker, error) {
	if preset == "nacl-32" {
		return core.NewChecker()
	}
	com, err := policy.Compile(presetSpec(preset))
	if err != nil {
		return nil, err
	}
	return core.NewCheckerFromPolicy(com)
}

// newWorkload generates a workload's inputs and builds its checker.
func newWorkload(name string, seed int64, sc scale) (workload, error) {
	preset := workloadPreset(name)
	p, err := newPool(preset, mix(seed, streamPool), sc.poolUnits)
	if err != nil {
		return nil, err
	}
	c, err := newChecker(preset)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(mix(seed, streamImages)))
	catalogOf := func(n, shape, size int, stream bool) *catalog {
		imgs := make([]*image, n+rejectOps)
		for i := range imgs {
			if i < n {
				imgs[i] = p.newImage(rng, shape, sc.size(size))
			} else {
				imgs[i] = p.newImage(rng, shapePoison, sc.size(size))
			}
		}
		return newCatalog(imgs[:n], imgs[n:], c, seed, stream)
	}
	switch name {
	case "dense", "dense16":
		return catalogOf(coldLen, shapeDense, coldSize, false), nil
	case "sparse":
		return catalogOf(coldLen, shapeSparse, coldSize, false), nil
	case "stream":
		return catalogOf(streamLen, shapeDense, streamSize, true), nil
	case "jit-edit":
		w := jitFor(p, c, seed, sc)
		return w, w.reset()
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
}

// catalog verifies images from a fixed set through one checker, with
// VerifyWith or, for stream, VerifyReader from the image's recipe.
// Requests visit every image once per round, in a seeded order per
// round, so every seed sees each image equally often. The poisoned
// images, of the same shape and size, serve only the rejection check.
type catalog struct {
	imgs   []*image
	bad    []*image
	c      *core.Checker
	stream bool
	seed   int64
	rng    *rand.Rand
	perm   []int
	pos    int
	nbad   int
	cur    *image
	buf    []byte
	code   []byte
	rd     segReader
	max    int
}

func newCatalog(imgs, bad []*image, c *core.Checker, seed int64, stream bool) *catalog {
	w := &catalog{imgs: imgs, bad: bad, c: c, stream: stream, seed: seed, perm: make([]int, len(imgs))}
	for _, im := range imgs {
		w.max = max(w.max, im.size)
	}
	if !stream {
		w.buf = make([]byte, w.max)
	}
	w.rng = rand.New(rand.NewSource(mix(seed, streamOps)))
	w.reset()
	return w
}

func (w *catalog) reset() error {
	w.rng.Seed(mix(w.seed, streamOps))
	w.pos = len(w.perm)
	w.nbad = 0
	return nil
}

func (w *catalog) next() {
	if w.pos == len(w.perm) {
		shuffle(w.rng, w.perm)
		w.pos = 0
	}
	w.load(w.imgs[w.perm[w.pos]])
	w.pos++
}

func (w *catalog) poison() {
	w.load(w.bad[w.nbad%len(w.bad)])
	w.nbad++
}

// load makes im the current op's input.
func (w *catalog) load(im *image) {
	w.cur = im
	if w.stream {
		w.rd.reset(im)
		return
	}
	w.code = im.assemble(w.buf)
}

// shuffle refills perm with a seeded permutation of its indices.
func shuffle(rng *rand.Rand, perm []int) {
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
}

func (w *catalog) call() (*core.Report, error) {
	if w.stream {
		return w.c.VerifyReader(&w.rd, core.VerifyOptions{StreamSize: int64(w.cur.size)})
	}
	return w.c.VerifyWith(w.code, core.VerifyOptions{}), nil
}

func (w *catalog) expect() (int, int) { return w.cur.poison, w.cur.p.bundle }

func (w *catalog) op() opInfo {
	o := opInfo{bytes: int64(w.cur.size)}
	if w.stream {
		o.wait = int64(w.rd.wait)
	}
	return o
}

func (w *catalog) minWarmup() int { return len(w.imgs) }

// maxEvents: a span and a SWAR back-off per shard, all possibly from
// one worker, and a few run-level records.
func (w *catalog) maxEvents() int { return 2*w.max/core.ShardBytes + 64 }

// jit is a JIT's code region: a 64 MiB NaCl-32 image of 4 KiB slots
// holding self-contained code, re-verified with VerifyDeltaWith after
// every edit. A round replaces the code of one slot, drawn uniformly,
// with other code of the same size. A poison op writes a slot that
// starts with a poison bundle; the next round rewrites that slot too.
type jit struct {
	p       *pool
	c       *core.Checker
	seed    int64
	slot    int
	img     []byte
	st      *core.DeltaState
	gen     *rand.Rand
	rng     *rand.Rand
	changed []core.Range
	tmp     []seg
	bad     int // the poisoned slot, or -1
}

// jitFor allocates a jit session over pool p without building its image.
func jitFor(p *pool, c *core.Checker, seed int64, sc scale) *jit {
	size := sc.size(jitSize)
	w := &jit{p: p, c: c, seed: seed, slot: max(jitSlot/sc.div&^63, 128), img: make([]byte, size), bad: -1}
	w.img = w.img[:size/w.slot*w.slot]
	w.tmp = make([]seg, 0, 1024)
	w.changed = make([]core.Range, 0, 2)
	w.gen = rand.New(rand.NewSource(mix(seed, streamImages)))
	w.rng = rand.New(rand.NewSource(mix(seed, streamOps)))
	return w
}

// write fills slot k with segs and records the edit.
func (w *jit) write(k int, segs []seg) {
	w.p.write(w.img[k*w.slot:(k+1)*w.slot], segs)
	w.changed = append(w.changed, core.Range{Off: k * w.slot, Len: w.slot})
}

// refill writes fresh code into slot k.
func (w *jit) refill(rng *rand.Rand, k int) {
	w.tmp = w.p.fill(rng, w.tmp[:0], w.slot)
	w.write(k, w.tmp)
}

func (w *jit) reset() error {
	w.build()
	w.st = nil
	rep, st, err := w.c.VerifyDeltaWith(w.img, nil, nil, core.VerifyOptions{})
	if err != nil {
		return err
	}
	if !rep.Safe {
		return fmt.Errorf("jit-edit: initial image rejected: %v", rep.Err())
	}
	w.st = st
	return nil
}

// build regenerates the initial image and rewinds the op sequence.
func (w *jit) build() {
	w.gen.Seed(mix(w.seed, streamImages))
	w.rng.Seed(mix(w.seed, streamOps))
	w.bad = -1
	for k := 0; k < len(w.img)/w.slot; k++ {
		w.refill(w.gen, k)
	}
	w.changed = w.changed[:0]
}

func (w *jit) next() {
	w.changed = w.changed[:0]
	if w.bad >= 0 {
		w.refill(w.rng, w.bad)
		w.bad = -1
	}
	w.refill(w.rng, w.rng.Intn(len(w.img)/w.slot))
}

func (w *jit) poison() {
	w.changed = w.changed[:0]
	if w.bad >= 0 {
		w.refill(w.rng, w.bad)
	}
	w.bad = w.rng.Intn(len(w.img) / w.slot)
	w.tmp = append(w.tmp[:0], seg{kind: segPoison, idx: int32(w.rng.Intn(len(w.p.poisons))), n: int32(w.p.bundle)})
	w.tmp = w.p.fill(w.rng, w.tmp, w.slot-w.p.bundle)
	w.write(w.bad, w.tmp)
}

func (w *jit) call() (*core.Report, error) {
	rep, st, err := w.c.VerifyDeltaWith(w.img, w.changed, w.st, core.VerifyOptions{})
	w.st = st
	return rep, err
}

func (w *jit) expect() (int, int) {
	if w.bad >= 0 {
		return w.bad * w.slot, w.p.bundle
	}
	return -1, w.p.bundle
}

func (w *jit) op() opInfo {
	return opInfo{bytes: int64(len(w.img)), edited: int64(len(w.changed) * w.slot)}
}

func (w *jit) minWarmup() int { return 0 }

// maxEvents: a replay event per retained chunk, plus the spans and
// back-offs of the few chunks a round re-parses (the edit's chunks, an
// overhang neighbour and the tail; 16 leaves room to spare). A round
// that re-parsed more would wrap the ring and mark the trace
// incomplete rather than go unnoticed.
func (w *jit) maxEvents() int { return len(w.img)/(64*kib) + 2*16*(64*kib)/core.ShardBytes + 64 }
