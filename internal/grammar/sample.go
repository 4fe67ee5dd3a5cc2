package grammar

import "math/rand"

// This file implements the paper's generative use of grammars (§2.5):
// "Using our generative grammar, we randomly produce byte sequences that
// correspond to instructions we have specified." Sampling a grammar yields
// a (bit string, semantic value) pair drawn from its denotation, which the
// fuzzer feeds back through the decoder.

// Sampler draws random members of a grammar's denotation.
type Sampler struct {
	rng  *rand.Rand
	alts map[*Grammar][]*Grammar
}

// NewSampler creates a sampler using the given random source.
func NewSampler(rng *rand.Rand) *Sampler {
	return &Sampler{rng: rng, alts: make(map[*Grammar][]*Grammar)}
}

// flatAlts returns the leaves of a maximal Alt chain, memoized. Alt
// drops Void branches, so every leaf is productive.
func (s *Sampler) flatAlts(g *Grammar) []*Grammar {
	if v, ok := s.alts[g]; ok {
		return v
	}
	out := flattenAlt(g, nil)
	s.alts[g] = out
	return out
}

// Productive reports whether g's language is non-empty. No constructor
// builds a node over Void, so only Void itself is empty.
func (s *Sampler) Productive(g *Grammar) bool { return g.op != opVoid }

// Sample draws one (bit string, value) pair uniformly-ish from [[g]]. The
// second return is false when the language is empty.
func (s *Sampler) Sample(g *Grammar) ([]bool, Value, bool) {
	if !s.Productive(g) {
		return nil, nil, false
	}
	bits, v := s.sample(g)
	return bits, v, true
}

func (s *Sampler) sample(g *Grammar) ([]bool, Value) {
	switch g.op {
	case opEps:
		return nil, Unit{}
	case opChar:
		return []bool{g.bit}, g.bit
	case opAny:
		b := s.rng.Intn(2) == 1
		return []bool{b}, b
	case opCat:
		s1, v1 := s.sample(g.l)
		s2, v2 := s.sample(g.r)
		return append(s1, s2...), Pair{v1, v2}
	case opAlt:
		// Alt chains are flattened and sampled uniformly across all
		// alternatives; sampling the binary tree directly would weight
		// the last alternative of an n-way choice with probability 1/2.
		alts := s.flatAlts(g)
		return s.sample(alts[s.rng.Intn(len(alts))])
	case opStar:
		var bits []bool
		var vals []Value
		for s.Productive(g.l) && s.rng.Intn(2) == 0 {
			sb, v := s.sample(g.l)
			if len(sb) == 0 {
				break // avoid spinning on a nullable body
			}
			bits = append(bits, sb...)
			vals = append(vals, v)
		}
		return bits, vals
	case opMap:
		sb, v := s.sample(g.l)
		return sb, g.f(v)
	default:
		panic("grammar: sampling Void")
	}
}

// SampleBytes draws a sample whose bit length is a multiple of 8 and packs
// it into bytes, retrying up to tries times (instruction grammars are
// byte-aligned by construction, so the first try normally succeeds).
func (s *Sampler) SampleBytes(g *Grammar, tries int) ([]byte, Value, bool) {
	for i := 0; i < tries; i++ {
		bits, v, ok := s.Sample(g)
		if !ok {
			return nil, nil, false
		}
		if len(bits)%8 == 0 {
			return BitsToBytes(bits), v, true
		}
	}
	return nil, nil, false
}
