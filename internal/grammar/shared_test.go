package grammar_test

import (
	"testing"

	"rocksalt/internal/grammar"
	"rocksalt/internal/policy"
)

// TestPolicyGrammarSharesTails bounds the distinct nodes of NaCl-16's
// NoControlFlow grammar. The decoder builds each ModRM r/m tail once and
// shares it across instruction forms. Rebuilding the tails per form makes
// the grammar about seven times larger (115,654 nodes), and with it every
// walk keyed by grammar node (Strip's memo, the sampler, the ambiguity
// check).
func TestPolicyGrammarSharesTails(t *testing.T) {
	norm, err := policy.NaCl16().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n := grammar.NodeCount(policy.NoControlFlowGrammar(norm)); n > 20000 {
		t.Fatalf("NaCl-16 NoControlFlowGrammar has %d distinct nodes, want at most 20,000", n)
	}
}
