package core

import (
	"rocksalt/internal/grammar"
	"rocksalt/internal/policy"
)

// This file is the Go rendition of the paper's trusted checker: the
// verifier main routine of Figure 5 and the DFA match routine of
// Figure 6. Everything clever lives in the generated tables; the code
// below is deliberately a line-by-line transcription. The fused product
// automaton (fused.go) is the performance path; the three-DFA match
// loop here is the reference semantics it is held to.

// Checker verifies flat code images against a compiled sandbox policy
// (the NaCl policy by default; see NewCheckerFromPolicy for others).
type Checker struct {
	masked, noCF, direct *dfa
	// fused is the product automaton the default engine walks; the
	// three component DFAs above remain the reference engine.
	fused *fusedDFA
	// params are the engine knobs of the compiled policy: bundle size,
	// mask-instruction length and guard cutoff. Every constructor sets
	// them (to naclParams unless a spec says otherwise).
	params policyParams
	// bundle names the table provenance: "RSLT5" for checkers loaded
	// from a serialized bundle, "compiled" for tables built at runtime
	// from grammars or a policy spec. Surfaced by TableBundle and the
	// rocksalt_build_info gauge.
	bundle string
	// Entries is the set of permitted out-of-image direct-jump targets
	// (the NaCl runtime's trampoline entry points).
	Entries map[uint32]bool
	// AlignedCalls additionally requires every call (direct CALL and the
	// call half of a masked pair) to end exactly at a bundle boundary, so
	// that return addresses are always bundle-aligned — the rule
	// production NaCl uses to make its replacement for RET safe. Off by
	// default (the paper's five requirements do not include it).
	AlignedCalls bool
}

// policyParams are the non-table engine parameters of a compiled
// policy. They are part of the verdict-cache configuration key
// (cache.go) and of the RSLT5 bundle format (tables.go).
type policyParams struct {
	// name labels the policy in PolicyInfo; it has no engine effect.
	name string
	// bundle is the alignment quantum (a power of two dividing
	// ShardBytes).
	bundle int
	// maskLen is the encoded size of the masking AND; the jump half of
	// a masked pair starts maskLen bytes into the pair.
	maskLen int
	// guard, when nonzero, rejects out-of-image direct-jump targets
	// below it even when whitelisted in Entries.
	guard uint32
}

// naclParams are the default NaCl policy's engine parameters.
var naclParams = policyParams{name: "nacl-32", bundle: BundleSize, maskLen: maskLen}

// PolicyInfo describes the compiled policy a checker enforces.
type PolicyInfo struct {
	// Name is the policy's display name (from the spec; "nacl-32" for
	// the default).
	Name string
	// BundleSize is the alignment quantum in bytes.
	BundleSize int
	// MaskLen is the encoded size of the masking AND instruction.
	MaskLen int
	// GuardCutoff is the guard-region ceiling (0 = no guard region).
	GuardCutoff uint32
}

// PolicyInfo reports the compiled policy parameters this checker
// enforces.
func (c *Checker) PolicyInfo() PolicyInfo {
	return PolicyInfo{
		Name:        c.params.name,
		BundleSize:  c.params.bundle,
		MaskLen:     c.params.maskLen,
		GuardCutoff: c.params.guard,
	}
}

// TableBundle reports the checker's table provenance: the serialized
// bundle version it was loaded from ("RSLT5") or "compiled" for tables
// built at runtime.
func (c *Checker) TableBundle() string { return c.bundle }

// Fingerprint returns the hex content key of the checker's full
// configuration — tables plus policy knobs, the same hash the verdict
// cache is keyed on — identifying the policy in build-info metrics and
// postmortem bundles. Empty for a checker without fused tables.
func (c *Checker) Fingerprint() string {
	if c.fused == nil {
		return ""
	}
	k := c.configKey()
	return k.String()
}

// NewChecker returns a checker backed by the pregenerated table bundle
// embedded in the binary (loaded once per process, behind a sync.Once).
// This is the paper's deployment story — tables generated offline,
// shipped beside the tiny trusted loop. The first construction reads,
// checks and derives the tables in under a millisecond (2-vCPU Xeon),
// against tens of milliseconds to compile the policy grammars, and
// every later one is a microsecond.
// NewCheckerFromGrammars recompiles from the grammars and is the
// cross-check path; the embedded-bundle regeneration test holds the two
// identical.
func NewChecker() (*Checker, error) {
	return newCheckerFromEmbedded()
}

// NewCheckerFromGrammars compiles the policy grammars to DFAs (memoized
// across calls), fuses them, and returns a checker. It is the slow,
// self-contained construction the embedded bundle is generated from.
func NewCheckerFromGrammars() (*Checker, error) {
	set, err := BuildDFAs()
	if err != nil {
		return nil, err
	}
	return newCheckerFromSet(set, naclParams, false)
}

// newCheckerFromSet builds the runtime checker — component DFAs plus
// the fused product — from a compiled DFA set under the given engine
// parameters.
func newCheckerFromSet(set *DFASet, params policyParams, alignedCalls bool) (*Checker, error) {
	fused, err := fuseDFAs(set)
	if err != nil {
		return nil, err
	}
	return newChecker(fused, set, params, "compiled", alignedCalls)
}

// newChecker is the one checker constructor, shared by the table
// loader and the compiled paths. It checks the fused automaton against
// the component DFAs it must be the product of (policy.CheckProduct),
// then derives the fast-path tables from the checked automaton
// (computeFast).
func newChecker(fused *fusedDFA, set *DFASet, params policyParams, bundle string, alignedCalls bool) (*Checker, error) {
	if err := policy.CheckProduct(fused.start, fused.tags, fused.table, set.MaskedJump, set.NoControlFlow, set.DirectJump); err != nil {
		return nil, err
	}
	fused.computeFast()
	return &Checker{
		masked:       newDFA(set.MaskedJump),
		noCF:         newDFA(set.NoControlFlow),
		direct:       newDFA(set.DirectJump),
		fused:        fused,
		params:       params,
		bundle:       bundle,
		AlignedCalls: alignedCalls,
	}, nil
}

// NewCheckerFromPolicy builds a checker from a runtime-compiled policy:
// the compiled component DFAs are fused and the fast-path tables
// derived through the same constructor the embedded bundle loads
// through, and the engine takes its bundle size, mask length and guard
// cutoff from the spec. Runtime policies (16-byte bundles included)
// therefore verify on the lane fast path from their first image, like
// the embedded bundle. Compiling the default NaCl spec yields a checker
// byte-identical in behaviour (and in serialized tables) to NewChecker.
func NewCheckerFromPolicy(com *policy.Compiled) (*Checker, error) {
	set := &DFASet{
		MaskedJump:    com.MaskedJump,
		NoControlFlow: com.NoControlFlow,
		DirectJump:    com.DirectJump,
	}
	return newCheckerFromSet(set, specParams(com.Spec), com.Spec.AlignedCalls)
}

// specParams extracts the engine parameters from a normalized spec.
func specParams(s policy.Spec) policyParams {
	return policyParams{
		name:    s.Name,
		bundle:  s.BundleSize,
		maskLen: s.MaskLen(),
		guard:   s.GuardCutoff,
	}
}

// match is Figure 6: run the DFA over code starting at *pos; on reaching
// an accepting state advance *pos past the matched bytes and report
// success, on a rejecting state (or end of input) leave *pos unchanged.
func match(a *dfa, code []byte, pos *int) bool {
	state := uint16(a.start)
	off := 0
	table, status := a.table, a.status
	for *pos+off < len(code) {
		state = table[state][code[*pos+off]]
		off++
		st := status[state]
		if st == stReject {
			break
		}
		if st == stAccept {
			*pos += off
			return true
		}
	}
	return false
}

// dfa is the table form consumed by match; it mirrors the C struct of
// Figure 6, with the accept/reject arrays fused into one status byte per
// state.
type dfa struct {
	start  int
	status []uint8
	table  [][256]uint16
}

const (
	stNeutral = uint8(0)
	stAccept  = uint8(1)
	stReject  = uint8(2)
)

func newDFA(g *grammar.DFA) *dfa {
	status := make([]uint8, g.NumStates())
	for i := range status {
		switch {
		case g.Accepts[i]:
			status[i] = stAccept
		case g.Rejects[i]:
			status[i] = stReject
		}
	}
	return &dfa{start: g.Start, status: status, table: g.Table}
}

// Verify is Figure 5: returns true exactly when the image satisfies the
// aligned sandbox policy. It runs the staged engine sequentially on
// pooled scratch — steady state it performs no heap allocation; use
// VerifyWith to spread stage 1 over a worker pool or to get a Report.
func (c *Checker) Verify(code []byte) bool {
	return c.verifyLean(code)
}

// VerifyReport is Verify with a diagnostic for the first violation. The
// returned error, when non-nil, is a *Violation carrying the offset,
// kind and byte window of the canonical lowest-offset violation.
func (c *Checker) VerifyReport(code []byte) (bool, error) {
	rep := c.VerifyWith(code, VerifyOptions{Workers: 1})
	return rep.Safe, rep.Err()
}

// Analyze runs the verifier and additionally returns its instruction-
// boundary bitmap and the positions of the indirect jumps inside masked
// pairs. These arrays are the invariant the safety theorem (and its
// executable test) is stated over: during execution of an accepted image,
// the PC is always at a valid offset, or at a pairJmp offset reached by
// fall-through from its mask.
func (c *Checker) Analyze(code []byte) (valid, pairJmp []bool, ok bool) {
	valid, pairJmp, rep := c.AnalyzeWith(code, VerifyOptions{Workers: 1})
	return valid, pairJmp, rep.Safe
}

// maskLen is the encoded size of the masking AND (0x83 modrm imm8).
const maskLen = 3

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// DFAStats reports the state counts of the generated automata — the
// paper's evaluation point that the largest checker DFA has 61 states and
// needs no minimization.
func DFAStats() (map[string]int, error) {
	dfas, err := BuildDFAs()
	if err != nil {
		return nil, err
	}
	return map[string]int{
		"MaskedJump":    dfas.MaskedJump.NumStates(),
		"NoControlFlow": dfas.NoControlFlow.NumStates(),
		"DirectJump":    dfas.DirectJump.NumStates(),
	}, nil
}

// FusedStats reports the size of the minimized fused product automaton:
// its state count and the bytes of its transition table plus tags.
func FusedStats() (states, tableBytes int, err error) {
	dfas, err := BuildDFAs()
	if err != nil {
		return 0, 0, err
	}
	fused, err := fuseDFAs(dfas)
	if err != nil {
		return 0, 0, err
	}
	n := len(fused.table)
	return n, n*512 + n, nil
}
