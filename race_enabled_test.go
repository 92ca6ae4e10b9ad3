//go:build race

package artisan

// raceEnabled skips allocation assertions under the race detector,
// whose instrumentation changes allocation counts.
const raceEnabled = true
