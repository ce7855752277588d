//go:build !race

package hms

const raceEnabled = false
