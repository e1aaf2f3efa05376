//go:build race

package interp_test

// The race detector makes sync.Pool drop pooled frames at random, so
// allocation counts are only pinned without it.
func init() { raceEnabled = true }
