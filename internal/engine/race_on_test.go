//go:build race

package engine

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so allocation counts are not the program's.
const raceEnabled = true
