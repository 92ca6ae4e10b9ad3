//go:build race

package llm

// raceEnabled skips allocation assertions under the race detector,
// whose instrumentation changes allocation counts.
const raceEnabled = true
