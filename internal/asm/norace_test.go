//go:build !race

package asm

const raceEnabled = false
