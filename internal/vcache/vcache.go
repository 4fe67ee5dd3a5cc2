// Package vcache is a content-addressed verdict cache: a sharded,
// byte-capacity LRU keyed by strong hashes of verified content. The
// verification engine stores whole-image verdicts in it (a Report keyed
// by the hash of the checker configuration and the image), so
// re-verifying an unchanged image is a hash and a lookup, or only a
// lookup for a caller that kept the key. An edited image is a new key;
// re-verifying it cheaply is the engine's delta verifier's job.
//
// The cache stores opaque values (`any`) so it has no dependency on the
// engine's types; the engine decides what a hit means. Keys are 128-bit
// truncations of SHA-256 over domain-separated input (hash.go), so a
// collision — the only way the cache could change a verdict — requires
// breaking the hash. Everything else here can only cost or save time.
package vcache

import (
	"fmt"
	"sync"
)

// Key addresses one cache entry: 128 bits of a domain-separated
// SHA-256 (see Sum). The zero Key is valid but, being as hard to find a
// preimage for as any other, never collides with real content in
// practice.
type Key [16]byte

// String renders the key as lowercase hex (for reports and logs).
func (k Key) String() string {
	const hexdigits = "0123456789abcdef"
	var b [32]byte
	for i, v := range k {
		b[2*i] = hexdigits[v>>4]
		b[2*i+1] = hexdigits[v&0xF]
	}
	return string(b[:])
}

// ParseKey inverts Key.String: 32 hex digits back into a Key. It exists
// so a key reported by one run (Report.CacheKey) can be handed to a
// later one without rehashing the content.
func ParseKey(s string) (Key, error) {
	var k Key
	if len(s) != 2*len(k) {
		return k, fmt.Errorf("vcache: key %q: want %d hex digits, have %d", s, 2*len(k), len(s))
	}
	for i := 0; i < len(k); i++ {
		hi, ok1 := unhex(s[2*i])
		lo, ok2 := unhex(s[2*i+1])
		if !ok1 || !ok2 {
			return Key{}, fmt.Errorf("vcache: key %q: not hex", s)
		}
		k[i] = hi<<4 | lo
	}
	return k, nil
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// Counters is a point-in-time snapshot of cache effectiveness,
// aggregated across shards.
type Counters struct {
	Hits      int64 // Get calls that found an entry
	Misses    int64 // Get calls that did not
	Evictions int64 // entries evicted to make room
	Entries   int64 // entries currently resident
	Bytes     int64 // payload bytes currently resident
}

// numShards spreads the lock; a power of two so the shard pick is a
// mask of the key's first byte.
const numShards = 16

// entry is one resident value on its shard's LRU list.
type entry struct {
	key        Key
	value      any
	size       int64
	prev, next *entry // LRU list: head = most recent
}

type shard struct {
	mu         sync.Mutex
	entries    map[Key]*entry
	head, tail *entry
	bytes      int64
	hits       int64
	misses     int64
	evictions  int64
}

// Cache is the sharded LRU. Safe for concurrent use.
type Cache struct {
	capBytes int64 // per total; each shard gets an equal slice
	shards   [numShards]shard
}

// New returns a cache bounded to roughly capBytes of stored payload
// (entry sizes are whatever callers declare in Put). Capacities below
// numShards bytes degenerate to an always-empty cache.
func New(capBytes int64) *Cache {
	c := &Cache{capBytes: capBytes}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*entry)
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	return &c.shards[k[0]&(numShards-1)]
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache) Get(k Key) (any, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.moveToFront(e)
	return e.value, true
}

// Put stores value under k, declaring its retained payload size for the
// capacity accounting. An existing entry under k is replaced. Values
// larger than a shard's capacity slice are not stored at all (they
// would only evict everything else for one residency).
func (c *Cache) Put(k Key, value any, size int64) {
	shardCap := c.capBytes / numShards
	if size < 0 || size > shardCap {
		return
	}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		s.bytes += size - e.size
		e.value, e.size = value, size
		s.moveToFront(e)
	} else {
		e := &entry{key: k, value: value, size: size}
		s.entries[k] = e
		s.bytes += size
		s.pushFront(e)
	}
	for s.bytes > shardCap && s.tail != nil {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.key)
		s.bytes -= victim.size
		s.evictions++
	}
}

// Counters aggregates the per-shard statistics.
func (c *Cache) Counters() Counters {
	var out Counters
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		out.Hits += s.hits
		out.Misses += s.misses
		out.Evictions += s.evictions
		out.Entries += int64(len(s.entries))
		out.Bytes += s.bytes
		s.mu.Unlock()
	}
	return out
}

// moveToFront marks e most recently used. Caller holds the shard lock.
func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *shard) pushFront(e *entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
