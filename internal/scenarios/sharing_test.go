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
// statedb/copy-20k-slots: the state with its account-trie handle inside
// it, its account map (header and one group), the slab of account structs
// and the slab of storage-trie handles — the 250 senders do not exist
// yet, so each slab holds one: five allocations and 640 B, none per slot
// and, since the slabs, none per account (eight while the state, every
// account and every trie handle were objects of their own, two a handle;
// the deep copy before that took 74 allocations, 2.36 MB and 1.9 ms on
// the same state).
// replay/kv-250tx-on-20k-slots: that copy, 250 new sender accounts, the
// body, the block's overlay sealed and merged, and the path copies of
// two tries (21 795 allocations and 5.19 MB before storage was shared,
// 21 477 and 2.86 MB after; 5 578 and 1.04 MB once a trie node encoded
// into one buffer of its exact size and a branch the block dirties was
// copied once per block, not once per slot; 4 327 since a sender owns no
// storage trie, an update's nibble key stays on the stack, the flush
// hands the trie the encoding it built, the journal and the machine come
// from their pools and a call's program counter lives in its frame; 4 077
// since RETURN writes into the machine's own buffer).
// Pinned to five either side for map growth under the per-process hash
// seed.
func TestSharedStorageAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	copied := testing.AllocsPerRun(50, CopyGrownState())
	replay := testing.AllocsPerRun(20, ReplayOnGrownState())
	t.Logf("copy-20k-slots %v, kv-250tx-on-20k-slots %v allocs", copied, replay)
	if copied != 5 {
		t.Errorf("statedb/copy-20k-slots: %v allocs per copy, pinned 5", copied)
	}
	if replay < 4_072 || replay > 4_082 {
		t.Errorf("replay/kv-250tx-on-20k-slots: %v allocs per block, pinned 4077 +- 5", replay)
	}
}
