//go:build !race

package netflow

const raceEnabled = false
