//go:build race

package simhw

const raceEnabled = true
