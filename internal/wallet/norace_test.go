//go:build !race

package wallet

const raceEnabled = false
