package scenarios

import (
	"runtime/debug"
	"testing"
)

// TestBlockAssemblyAllocsPinned pins allocs/op of the five deep-pool
// block-assembly rows, so a drift fails here instead of waiting for
// someone to diff BENCH files. If a move is intended, update the
// constants and say so. Measured on go1.24.0.
//
// miner/order-live-pool10k: the collected ordering; the prefix read off
// the tracker's dag, the pointer set, the ranks and the two nonce passes
// over 10 000 transactions are the strategy's scratch, reused from the
// previous ordering (7 while the prefix was a fresh slice grown by
// append, 43 while each ordering made its own scratch, 58 while the
// prefix was assembled from a []*Node of the series).
// miner/order-scratch-pool10k is the same ordering for a slice
// that is not the pool's snapshot, so it fills a dag first: one vertex
// per pending set (2 010), which holds its entry, its first child and
// its first four buys, and the three maps' growth — 2 093 while the
// prefix was a fresh slice, 2 129 before the strategy kept its scratch,
// 8 219 while the dag
// kept an entry, a duplicate list and a child list per set and a buy
// bucket per interval in three maps, 10 188 while a second, from-scratch
// implementation served such slices with a Node and a child list per set
// and three pool-sized maps; it is the same-run twin, pinned so the pair
// keeps its distance. txpool/snapshot-after-admit-10k is the attached
// tracker's two allocations for a new set whose previous mark nothing
// else names (the vertex of its mark and the vertex of the previous
// mark; three while entry, duplicate list and child list were separate
// objects) and nothing for the snapshot. miner/build-50-of-pool10k is the block a
// miner builds on that pool: the same prefix and cursors, one body sized
// by what fits, and the execution of its 50 transactions, which is most
// of the count (510 before the prefix lost its Nodes, 495 until the
// execution's journal, machine and program counters stopped being
// allocated per block and per call, 375 until transaction digests and
// the tx root encoded on the stack and RETURN wrote into the machine's
// own buffer, 264 until a trie node kept its reference and not its
// encoding and a storage flush handed the trie its values in one slab,
// 220 until a trie leaf became one object with its value and nibbles,
// overwritten in place while unhashed, and a state flush encoded its
// accounts into one slab, 146 until the ordering's scratch stayed with
// the strategy, the dirty accounts became a flag and a pooled list, a
// code-less account shared the empty code hash, a seal merged into its
// overlay in place and the receipt root became one digest over one
// buffer, 100 until a trie's new nodes came from chunks where the nodes
// they replace were made by the previous flush, and the prefix became
// the strategy's scratch, 82 until a state copy shared the generations
// that hold its accounts instead of copying them all and an account
// began to encode into its own slot) — what matters is that nothing in it is per
// pending transaction. txpool/settle-50-of-10k removes 50 transactions through
// the tracker's feed, which allocates nothing, and admits them again: the
// 2 are the batch's two result slices; the vertices of the ten sets
// coming back and of the committed mark they chain off are the ones
// their settling put on the dag's free list (13 while the dag allocated
// each anew, 42 while a set cost the dag three objects and the first buy on
// its mark a bucket, 87 while the pool's nonce index was a map
// per sender, dropped with a sender's last transaction and made again
// on its return; 88 while AdmitBatch also kept a slice of the hashes the
// frozen instances already carry). The orderings and the
// build are pinned to a range either side for map growth under the
// per-process hash seed; the live ordering, whose maps are all scratch,
// exactly.
func TestBlockAssemblyAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	live := testing.AllocsPerRun(20, OrderDeepPool(true))
	scratch := testing.AllocsPerRun(20, OrderDeepPool(false))
	step := SnapshotAfterAdmit()
	step() // the admission behind a rebuild grows the exactly-sized slice
	admit := testing.AllocsPerRun(1000, step)
	build := testing.AllocsPerRun(20, BuildDeepPool())
	settle := testing.AllocsPerRun(100, SettleDeepPool())
	t.Logf("order-live %v, order-scratch %v, snapshot-after-admit %v, build %v, settle %v allocs", live, scratch, admit, build, settle)
	if live != 1 {
		t.Errorf("miner/order-live-pool10k: %v allocs per ordering, pinned 1", live)
	}
	if scratch < 2_085 || scratch > 2_089 {
		t.Errorf("miner/order-scratch-pool10k: %v allocs per ordering, pinned 2087 +- 2", scratch)
	}
	if build < 51 || build > 63 {
		t.Errorf("miner/build-50-of-pool10k: %v allocs per block, pinned 57 +- 6", build)
	}
	if settle != 2 {
		t.Errorf("txpool/settle-50-of-10k: %v allocs per settle and re-admission, pinned 2", settle)
	}
	if admit != 2 {
		t.Errorf("txpool/snapshot-after-admit-10k: %v allocs per admission and snapshot, pinned 2", admit)
	}
}
