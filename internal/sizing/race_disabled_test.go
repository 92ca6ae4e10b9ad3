//go:build !race

package sizing

const raceEnabled = false
