//go:build !race

package artisan

const raceEnabled = false
