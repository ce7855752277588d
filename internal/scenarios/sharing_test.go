package scenarios

import (
	"runtime"
	"runtime/debug"
	"testing"

	"sereth/internal/chain"
	"sereth/internal/statedb"
	"sereth/internal/types"
)

// TestSharedStorageAllocsPinned pins allocs/op of the two shared-storage
// rows, so a drift fails here instead of waiting for someone to diff
// BENCH files. If a move is intended, update the constants and say so.
// Measured on go1.24.0.
//
// statedb/copy-20k-slots: the state with its account-trie handle inside
// it, which shares the generations that hold the accounts: one
// allocation, none per slot and none per account (five while the copy
// rebuilt the account map and copied the accounts and their
// storage-trie handles into two slabs; eight while the state, every
// account and every trie handle were objects of their own, two a handle;
// the deep copy before that took 74 allocations, 2.36 MB and 1.9 ms on
// the same state).
// replay/kv-250tx-on-20k-slots: that copy, 250 new sender accounts, the
// body, the block's overlays sealed (the accounts' into a generation, the
// slots' into the storage trie), and the path copies of two tries (21 795 allocations and 5.19 MB before storage was shared,
// 21 477 and 2.86 MB after; 5 578 and 1.04 MB once a trie node encoded
// into one buffer of its exact size and a branch the block dirties was
// copied once per block, not once per slot; 4 327 since a sender owns no
// storage trie, an update's nibble key stays on the stack, the flush
// hands the trie the encoding it built, the journal and the machine come
// from their pools and a call's program counter lives in its frame; 4 077
// until RETURN wrote into the machine's own buffer; 2 741 since a trie
// node keeps its 32-byte reference and not a copy of its encoding, and a
// storage flush hands the trie its values in one slab; 1 740 since a trie
// leaf is one object with its value and nibbles, overwritten in place
// while unhashed, and a state flush encodes its accounts into one slab;
// 1 471 until the dirty accounts became a flag and a pooled list, a
// code-less account shared the empty code hash, a seal merged into its
// overlay in place and the receipt root became one digest over one
// buffer; 1 176 until a trie's new nodes came from chunks where the
// nodes they replace were made by the previous flush; 918 since the copy
// shares the account generations, the block's first writes copy their
// accounts, encoding buffers included, into one slab, and its accounts
// are sealed into one generation).
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
	if copied != 1 {
		t.Errorf("statedb/copy-20k-slots: %v allocs per copy, pinned 1", copied)
	}
	if replay < 913 || replay > 923 {
		t.Errorf("replay/kv-250tx-on-20k-slots: %v allocs per block, pinned 918 +- 5", replay)
	}
}

// TestMemoryChainHeapFollowsItsBlocks: a memory chain keeps the post
// states of the 512 blocks below its head, and successive post states
// share every account the blocks between them did not write. On a
// genesis of 10 000 funded accounts, 600 blocks of one nonce-only
// transaction each — built and then replayed, as a miner's peer does —
// grow the heap by at most 64 MB. Each post state held a copy of every
// account until the accounts were sealed into shared generations:
// ≈ 1.9 MB a block, 989 MB over this run.
func TestMemoryChainHeapFollowsItsBlocks(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	const accounts, blocks, bound = 10_000, 600, 64 << 20
	genesis := statedb.New()
	for i := range accounts {
		h := types.Keccak([]byte{byte(i), byte(i >> 8)})
		genesis.AddBalance(types.Address(h[:20]), 1)
	}
	payer := types.Address{0: 0xee}
	genesis.AddBalance(payer, 1)
	c := chain.New(chain.Config{GasLimit: 1_000_000}, genesis)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for n := uint64(1); n <= blocks; n++ {
		txs := []*types.Transaction{{From: payer, Nonce: n - 1, To: payer, GasPrice: 1, GasLimit: 21_000}}
		var head *types.Block
		var hash types.Hash
		var parent *statedb.StateDB
		c.ReadHeadState(func(b *types.Block, h types.Hash, st *statedb.StateDB) { head, hash, parent = b, h, st })
		header := &types.Header{ParentHash: hash, Number: n, GasLimit: head.Header.GasLimit, Time: head.Header.Time + 15}
		res, err := c.Process(parent, header, txs)
		if err != nil {
			t.Fatal(err)
		}
		block := &types.Block{Header: header, Txs: txs}
		header.TxRoot, header.ReceiptRoot = block.TxRoot(), res.ReceiptRoot
		header.StateRoot, header.GasUsed = res.StateRoot, res.GasUsed
		if _, err := c.InsertBlock(block); err != nil {
			t.Fatalf("block %d: %v", n, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d blocks on %d accounts: the heap grew %.1f MB", blocks, accounts, float64(grown)/(1<<20))
	if grown > bound {
		t.Fatalf("the heap grew %d B over %d one-transaction blocks on %d accounts, bound %d", grown, blocks, accounts, bound)
	}
	c.ReadState(func(st *statedb.StateDB) {
		if st.GetNonce(payer) != blocks {
			t.Fatalf("the payer's nonce is %d after %d blocks", st.GetNonce(payer), blocks)
		}
	})
}
