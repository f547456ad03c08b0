//go:build !race

package serve

// raceEnabled reports a race-detector build, where sync.Pool drops
// items at random and allocation counts mean nothing.
const raceEnabled = false
