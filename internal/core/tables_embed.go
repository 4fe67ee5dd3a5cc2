package core

import (
	"bytes"
	_ "embed"
	"sync"
)

// The pregenerated table bundle, regenerated with
//
//	go run ./cmd/dfagen -o internal/core/rocksalt_tables.bin
//
// whenever the policy grammars change. CI's regeneration guard (and
// TestRuntimeDefaultMatchesEmbedded) byte-compare a fresh generation
// against this file, so a stale bundle fails loudly instead of silently
// diverging from the grammars.
//
//go:embed rocksalt_tables.bin
var embeddedTables []byte

// EmbeddedTableBytes returns (a copy of) the embedded bundle — the
// regeneration guard and the benchmark suite read it to measure and
// cross-check the table-load path.
func EmbeddedTableBytes() []byte {
	return append([]byte(nil), embeddedTables...)
}

var (
	embOnce    sync.Once
	embChecker *Checker
	embErr     error
)

// newCheckerFromEmbedded parses the embedded bundle once and hands out
// fresh Checker values sharing the immutable tables, so every
// NewChecker call after the first costs one small allocation.
func newCheckerFromEmbedded() (*Checker, error) {
	embOnce.Do(func() {
		embChecker, embErr = NewCheckerFromTables(bytes.NewReader(embeddedTables))
	})
	if embErr != nil {
		return nil, embErr
	}
	return &Checker{
		masked: embChecker.masked,
		noCF:   embChecker.noCF,
		direct: embChecker.direct,
		fused:  embChecker.fused,
		params: embChecker.params,
		bundle: embChecker.bundle,
		// The bundle's flag; false for the shipped NaCl policy.
		AlignedCalls: embChecker.AlignedCalls,
	}, nil
}
