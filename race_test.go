//go:build race

package rocksalt_test

// raceEnabled reports that this binary was built with the race
// detector, whose instrumentation adds allocations the zero-alloc
// guards would misattribute to the checker.
const raceEnabled = true
