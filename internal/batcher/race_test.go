//go:build race

package batcher

// raceEnabled: the race detector adds allocations and makes sync.Pool
// drop a share of what it is given, so allocation pins do not hold.
const raceEnabled = true
