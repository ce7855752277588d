//go:build !race

package txpool

const raceEnabled = false
