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
// miner/order-live-pool10k: the prefix read off the tracker's dag, the
// pointer set, and Baseline plus two nonce passes over 10 000
// transactions — tens of allocations, none per transaction and none per
// series member (58 while the prefix was assembled from a []*Node of the
// series). miner/order-scratch-pool10k is the same ordering for a slice
// that is not the pool's snapshot, so it fills a dag first: three
// allocations per pending set (entry, duplicate list, child list), one
// bucket per interval (2 010 of each) and the five maps' growth — 10 188
// while a second, from-scratch implementation served such slices with a
// Node and a child list per set and three pool-sized maps; it is the
// same-run twin, pinned so the pair keeps its distance.
// txpool/snapshot-after-admit-10k is the attached tracker's
// three allocations for a new set (entry, duplicate list, child list)
// and nothing for the snapshot. miner/build-50-of-pool10k is the block a
// miner builds on that pool: the same prefix and cursors, one body sized
// by what fits, and the execution of its 50 transactions, which is most
// of the count (510 before the prefix lost its Nodes, 495 until the
// execution's journal, machine and program counters stopped being
// allocated per block and per call, 375 until transaction digests and
// the tx root encoded on the stack and RETURN wrote into the machine's
// own buffer) — what matters is that nothing in it is per pending
// transaction. txpool/settle-50-of-10k removes 50 transactions through
// the tracker's feed, which allocates nothing, and admits them again: the
// 42 are the tracker's, for ten sets and forty buys coming back, and the
// batch's two result slices (87 while the pool's nonce index was a map
// per sender, dropped with a sender's last transaction and made again
// on its return; 88 while AdmitBatch also kept a slice of the hashes the
// frozen instances already carry). The orderings and the
// build are pinned to a range either side for map growth under the
// per-process hash seed.
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
	if live < 41 || live > 45 {
		t.Errorf("miner/order-live-pool10k: %v allocs per ordering, pinned 43 +- 2", live)
	}
	if scratch < 8_217 || scratch > 8_221 {
		t.Errorf("miner/order-scratch-pool10k: %v allocs per ordering, pinned 8219 +- 2", scratch)
	}
	if build < 258 || build > 270 {
		t.Errorf("miner/build-50-of-pool10k: %v allocs per block, pinned 264 +- 6", build)
	}
	if settle != 42 {
		t.Errorf("txpool/settle-50-of-10k: %v allocs per settle and re-admission, pinned 42", settle)
	}
	if admit != 3 {
		t.Errorf("txpool/snapshot-after-admit-10k: %v allocs per admission and snapshot, pinned 3", admit)
	}
}
