package scenarios

import (
	"runtime/debug"
	"testing"
)

// TestSharedStorageAllocsPinned pins allocs/op of the two shared-storage
// rows, so a drift fails here instead of waiting for someone to diff
// BENCH files. If a move is intended, update the constants and say so.
// Measured on go1.24.0.
//
// statedb/copy-20k-slots: the state, its account map (header and one
// group) and trie handle (two), and for the one account there is — the
// 250 senders do not exist yet — the struct and its storage-trie handle
// (two): eight allocations and 624 B, none per slot. The deep copy this
// replaced took 74 allocations, 2.36 MB and 1.9 ms on the same state.
// replay/kv-250tx-on-20k-slots: that copy, 250 new sender accounts, the
// body, the block's overlay sealed and merged, and the path copies of
// two tries (21 795 allocations and 5.19 MB before storage was shared,
// 21 477 and 2.86 MB after; 5 578 and 1.04 MB since a trie node encodes
// into one buffer of its exact size and a branch the block dirties is
// copied once per block, not once per slot). Pinned to five either side
// for map growth under the per-process hash seed.
func TestSharedStorageAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	copied := testing.AllocsPerRun(50, CopyGrownState())
	replay := testing.AllocsPerRun(20, ReplayOnGrownState())
	t.Logf("copy-20k-slots %v, kv-250tx-on-20k-slots %v allocs", copied, replay)
	if copied != 8 {
		t.Errorf("statedb/copy-20k-slots: %v allocs per copy, pinned 8", copied)
	}
	if replay < 5_573 || replay > 5_583 {
		t.Errorf("replay/kv-250tx-on-20k-slots: %v allocs per block, pinned 5578 +- 5", replay)
	}
}
