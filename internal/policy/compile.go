package policy

import (
	"fmt"
	"sync"

	"rocksalt/internal/grammar"
	"rocksalt/internal/vcache"
)

// Compiled is a policy run through the grammar→DFA pipeline: the three
// component automata the engine's reference path walks plus everything
// a consumer needs to parameterize the engine (the normalized spec) or
// to generate compliant images (the safe-instruction grammar, which
// the nacl toolchain samples from).
type Compiled struct {
	// Spec is the normalized spec this policy was compiled from.
	Spec Spec
	// MaskedJump, NoControlFlow and DirectJump are the three compiled
	// policy DFAs (the paper's §3 automata, under this spec).
	MaskedJump    *grammar.DFA
	NoControlFlow *grammar.DFA
	DirectJump    *grammar.DFA
	// SafeGrammar is the NoControlFlow grammar itself, kept for
	// samplers that generate compliant instruction streams.
	SafeGrammar *grammar.Grammar
	// Fingerprint is the normalized spec's content hash (see
	// Spec.Fingerprint).
	Fingerprint vcache.Key
}

// compileMemo caches Compiled values by spec fingerprint: a cold
// compile costs tens of milliseconds, the results are immutable, and
// callers (benchmarks, servers holding one checker per tenant policy)
// routinely re-compile the same handful of specs.
var compileMemo sync.Map // vcache.Key -> *Compiled

// Compile runs the full pipeline for a spec: normalize, build the three
// grammars, compile each to a DFA by regex derivatives (one shared
// hash-consing context, in the fixed order MaskedJump, NoControlFlow,
// DirectJump — the order the byte-identity guard pins). Results are
// memoized by spec fingerprint.
func Compile(spec Spec) (*Compiled, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	fp := norm.Fingerprint()
	if v, ok := compileMemo.Load(fp); ok {
		c := v.(*Compiled)
		if c.Spec.Name == norm.Name {
			return c, nil
		}
		cc := *c
		cc.Spec.Name = norm.Name
		return &cc, nil
	}
	ctx := grammar.NewCtx()
	var cerr error
	compile := func(g *grammar.Grammar, name string) *grammar.DFA {
		if cerr != nil {
			return nil
		}
		d, err := ctx.CompileDFA(ctx.Strip(g), 0)
		if err != nil {
			cerr = fmt.Errorf("policy: compiling %s: %w", name, err)
			return nil
		}
		return d
	}
	safe := NoControlFlowGrammar(norm)
	c := &Compiled{
		Spec:          norm,
		MaskedJump:    compile(MaskedJumpGrammar(norm), "MaskedJump"),
		NoControlFlow: compile(safe, "NoControlFlow"),
		DirectJump:    compile(DirectJumpGrammar(), "DirectJump"),
		SafeGrammar:   safe,
		Fingerprint:   fp,
	}
	if cerr != nil {
		return nil, cerr
	}
	compileMemo.LoadOrStore(fp, c)
	return c, nil
}

// CompileDefault compiles the default NaCl spec (memoized like every
// other spec). It is the runtime twin of the embedded table bundle; the
// regeneration guard holds the two byte-identical.
func CompileDefault() (*Compiled, error) {
	return Compile(NaCl())
}
