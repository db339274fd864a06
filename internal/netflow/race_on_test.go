//go:build race

package netflow

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a share of the items put back, so pooled scratch is not allocation-free.
const raceEnabled = true
