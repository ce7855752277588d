//go:build race

package statedb

const raceEnabled = true
