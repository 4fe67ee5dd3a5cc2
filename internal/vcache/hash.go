package vcache

import (
	"crypto/sha256"
	"encoding/binary"
)

// Keys are truncated SHA-256: collision resistance is the cache's whole
// soundness story (a collision would let one image's verdict answer for
// another), so the hash must be cryptographic, and the stdlib
// implementation is hardware-accelerated on the platforms that matter.
// 128 retained bits keep key storage small while leaving collisions
// out of reach of any birthday attack an adversary could mount against
// a cache that holds at most millions of entries.
//
// Every key is domain-separated: the domain string and each part's
// length are hashed along with the content, so a configuration key can
// never alias an image key even when the bytes agree.

// Sum computes the Key for the given domain and parts. Parts are
// length-prefixed, so the partition into parts is part of the identity
// (no concatenation ambiguity).
func Sum(domain string, parts ...[]byte) Key {
	h := sha256.New()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(domain)))
	h.Write(n[:])
	h.Write([]byte(domain))
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	var k Key
	copy(k[:], d[:])
	return k
}
