//go:build race

package wallet

const raceEnabled = true
