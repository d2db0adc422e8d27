//go:build !race

package batcher

const raceEnabled = false
