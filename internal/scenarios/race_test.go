//go:build race

package scenarios

const raceEnabled = true
