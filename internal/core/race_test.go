//go:build race

package core

// The race detector intentionally defeats sync.Pool reuse to widen its
// observation window, so allocation budgets cannot hold under -race.
func init() { raceEnabled = true }
