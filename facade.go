package rocksalt

// This file is the public API surface: a curated facade over the
// implementation packages (which live under internal/, mirroring the
// layered design in DESIGN.md). The aliases are real types — values
// returned here interoperate with everything documented in the package
// tree — but the supported entry points for downstream users are the
// ones below.

import (
	"io"

	"rocksalt/internal/core"
	"rocksalt/internal/mips"
	"rocksalt/internal/nacl"
	"rocksalt/internal/policy"
	"rocksalt/internal/rtl"
	"rocksalt/internal/sim"
	"rocksalt/internal/tso"
	"rocksalt/internal/x86"
	"rocksalt/internal/x86/decode"
	"rocksalt/internal/x86/encode"
	"rocksalt/internal/x86/machine"
)

// ---------- The checker (the paper's contribution) ----------

// Checker verifies flat x86 code images against the NaCl sandbox policy
// using the DFA-driven RockSalt verifier.
type Checker = core.Checker

// BundleSize is the NaCl alignment quantum (32 bytes).
const BundleSize = core.BundleSize

// NewChecker compiles the policy grammars to DFA tables (memoized
// process-wide) and returns a verifier.
func NewChecker() (*Checker, error) { return core.NewChecker() }

// NewCheckerFromTables builds a verifier from a pre-generated table
// bundle (see cmd/dfagen -o), avoiding grammar compilation entirely.
func NewCheckerFromTables(r io.Reader) (*Checker, error) {
	return core.NewCheckerFromTables(r)
}

// PolicySpec declaratively describes a sandbox policy for the runtime
// policy compiler: bundle size, mask width and registers, entry
// alignment, call discipline, guard-region cutoff and banned
// instruction classes. The zero value (after normalization) is the
// default NaCl policy; policy.NaCl, policy.NaCl16 and policy.REINS are
// ready-made presets. See DESIGN.md §6g for the JSON schema.
type PolicySpec = policy.Spec

// ParsePolicySpec decodes and validates a JSON policy spec (see
// DESIGN.md §6g for the schema; unknown fields are rejected).
func ParsePolicySpec(data []byte) (PolicySpec, error) {
	return policy.ParseSpec(data)
}

// CompilePolicy runs the full offline pipeline at runtime — grammars →
// derivative DFAs → minimize → fuse → compact — for the given spec and
// returns a verifier enforcing that policy. Compilation is memoized on
// the spec fingerprint; compiling the default NaCl spec reproduces the
// embedded table bundle byte-identically.
func CompilePolicy(spec PolicySpec) (*Checker, error) {
	com, err := policy.Compile(spec)
	if err != nil {
		return nil, err
	}
	return core.NewCheckerFromPolicy(com)
}

// VerifyOptions configures the staged verification engine behind
// Checker.VerifyWith and Checker.VerifyContext: Workers spreads stage-1
// shard parsing over a worker pool (0 = GOMAXPROCS, 1 = in-line; absurd
// values are clamped, see core.MaxWorkers). Sequential and parallel
// runs return identical reports.
//
// Checker.VerifyContext / AnalyzeContext accept a context.Context:
// workers poll cancellation between shards, and an interrupted run
// returns a report with Outcome Canceled or Deadline — never Safe and
// never a partial violation list. Shard-worker panics are contained and
// fail closed as InternalFault violations carrying the recovered stack.
type VerifyOptions = core.VerifyOptions

// Report is the structured verification outcome: the verdict plus every
// violation found, sorted so Report.First is the canonical lowest-offset
// diagnostic regardless of worker count. Report.Outcome distinguishes a
// completed verdict from a canceled or deadline-exceeded run
// (Report.Interrupted).
type Report = core.Report

// Outcome classifies how a run ended (core.OutcomeSafe,
// core.OutcomeRejected, core.OutcomeCanceled, core.OutcomeDeadline).
type Outcome = core.Outcome

// Violation is one structured policy violation (offset, kind, byte
// window, detail; InternalFault violations also carry the recovered
// stack). It implements error.
type Violation = core.Violation

// ViolationKind classifies violations (core.IllegalInstruction,
// core.TargetOutOfImage, core.MisalignedCall, core.TargetNotBoundary,
// core.BundleStraddle, core.InternalFault).
type ViolationKind = core.ViolationKind

// Range describes one edited byte span handed to Checker.VerifyDelta:
// the incremental re-verifier that re-parses only the 64 KiB chunks a
// set of edits touched and reconciles them against the retained state
// of the previous round, for verdicts byte-identical to a full
// VerifyWith at O(changed bytes) cost. See core.Range and
// (*core.Checker).VerifyDelta.
type Range = core.Range

// DeltaState is the retained whole-image stage-1 state a VerifyDelta
// round reconciles against; each round consumes the previous round's
// state and returns the next. See core.DeltaState.
//
// Checker.VerifyReader streams an image of a declared size
// (VerifyOptions.StreamSize) through two bounded 256 KiB window
// buffers on the same machinery, parsing one window on the stage-1
// workers while it reads the next, for images too large to hold in
// memory.
type DeltaState = core.DeltaState

// ---------- The x86 model ----------

// Inst is a decoded x86 instruction (abstract syntax).
type Inst = x86.Inst

// Decoder decodes IA-32 machine code via the grammar-derived parser.
type Decoder = decode.Decoder

// NewDecoder builds a decoder over the full instruction grammar.
func NewDecoder() *Decoder { return decode.NewDecoder() }

// Encode assembles one instruction (the decoder's right inverse on the
// covered subset).
func Encode(i Inst) ([]byte, error) { return encode.Encode(i) }

// Machine is the concrete x86 machine state (registers, flags, segments,
// paged memory).
type Machine = machine.State

// NewMachine returns a zeroed machine with flat 4 GiB segments.
func NewMachine() *Machine { return machine.New() }

// Simulator executes machine code through the decode → RTL → interpret
// pipeline.
type Simulator = sim.Simulator

// NewSimulator creates a simulator over a machine state.
func NewSimulator(st *Machine) *Simulator { return sim.New(st) }

// Oracle resolves the model's non-determinism (undefined flags, RDTSC).
type Oracle = rtl.Oracle

// ---------- The sandboxing toolchain ----------

// ImageBuilder assembles NaCl-compliant code images (bundle packing,
// masked jumps, label fixups).
type ImageBuilder = nacl.Builder

// NewImageBuilder returns an empty compliant-image builder.
func NewImageBuilder() *ImageBuilder { return nacl.NewBuilder() }

// ---------- Extensions ----------

// TSOSystem is the multiprocessor model with per-CPU store buffers
// (x86-TSO).
type TSOSystem = tso.System

// NewTSOSystem creates n processors over one shared memory.
func NewTSOSystem(n int) *TSOSystem { return tso.NewSystem(n) }

// MIPSState is the bonus MIPS model built from the same DSLs.
type MIPSState = mips.State

// NewMIPSState returns a zeroed MIPS machine.
func NewMIPSState() *MIPSState { return mips.NewState() }
