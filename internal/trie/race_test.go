//go:build race

package trie

const raceEnabled = true
