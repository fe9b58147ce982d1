//go:build race

package engine

// raceEnabled reports whether the test binary was built with -race,
// which instruments allocations and so voids allocation counts.
const raceEnabled = true
