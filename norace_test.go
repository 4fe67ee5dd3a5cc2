//go:build !race

package rocksalt_test

// raceEnabled reports whether this binary was built with the race
// detector; see race_test.go.
const raceEnabled = false
