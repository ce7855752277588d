//go:build race

package asm

const raceEnabled = true
