//go:build !race

package core_test

// raceEnabled shortens the differential tests under the race detector.
const raceEnabled = false
