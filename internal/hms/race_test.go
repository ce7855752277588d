//go:build race

package hms

const raceEnabled = true
