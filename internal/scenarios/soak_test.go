package scenarios

import (
	"fmt"
	"runtime"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// soakWindow is the chain's reorg horizon (chain.memoryWindow): a
// store-backed chain keeps the states of the blocks within it and sweeps
// the rest once its head has moved a horizon on.
const soakWindow = 512

// soakSample is what one window of the soak leaves behind.
type soakSample struct {
	height     uint64
	goroutines int
	heap       uint64 // live heap after a collection
	// stateRecords is, per peer, what its store holds besides the block
	// bodies and the head pointer: the records of the states it keeps.
	stateRecords []int
}

// TestSoakHoldsItsWindow runs the paper's three-peer rig — a semantic
// miner, a baseline miner and a Sereth client, each persisting into a
// store of its own, as the sim's persisted peers do, on the default full
// mesh with 250 ms gossip — for ten reorg horizons of blocks, each block
// a set and two buys, and samples the population after every horizon.
// Deterministic: one goroutine drives the model clock, and every peer
// sweeps inside its own adoptions.
//
// It asserts that every peer ends on one head; that no goroutine
// outlives a horizon; that a store keeps the states of its horizon, not
// of its history (the peak of the last five horizons within a quarter of
// the peak of the two before); and that the heap grows with the history
// a node keeps by design — each block's body in memory and in its store,
// and its receipts, which ROADMAP item 5 bounds — and with nothing else:
// at most 16 KB a block for the three peers. It measures ≈ 6 KB, the
// bodies in the stores ≈ 2 KB of it; keeping every post state adds
// ≈ 16 KB. The miner's half, that the scratch a strategy keeps between
// builds is bounded by the largest ordering and not by the number of
// builds, is internal/miner's TestScratchStaysBoundedOverBuilds, which
// can see the scratch. p2p.Network's seen sets are only used on multihop
// topologies, so this mesh does not exercise them; their pruning stays
// with item 5.
func TestSoakHoldsItsWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("the soak mines 5 120 blocks on three persisted peers")
	}
	const horizons = 10
	before := runtime.NumGoroutine()

	reg := wallet.NewRegistry()
	owner := wallet.NewKey("soak-owner")
	reg.Register(owner)
	buyers := make([]*wallet.Key, 4)
	for i := range buyers {
		buyers[i] = wallet.NewKey(fmt.Sprintf("soak-buyer-%d", i))
		reg.Register(buyers[i])
	}
	contract := types.Address{19: 0xcc}
	genesis := statedb.New()
	genesis.SetCode(contract, asm.SerethContract())
	net := p2p.NewNetwork(p2p.Config{LatencyMs: 250, Seed: 1})
	kinds := []struct {
		mode  node.Mode
		miner node.MinerKind
	}{{node.ModeSereth, node.MinerSemantic}, {node.ModeGeth, node.MinerBaseline}, {node.ModeSereth, node.MinerNone}}
	nodes := make([]*node.Node, len(kinds))
	stores := make([]*store.MemStore, len(kinds))
	for i, k := range kinds {
		stores[i] = store.NewMem()
		n, err := node.New(node.Config{
			ID: p2p.PeerID(i + 1), Mode: k.mode, Miner: k.miner, Contract: contract,
			Chain:   chain.Config{GasLimit: 5_400_000, Registry: reg},
			Genesis: genesis, Network: net, Seed: int64(i) * 7, ReorderWindow: 4,
			Store: stores[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	client := nodes[2]

	var samples []soakSample
	var bodyBytes uint64 // the encoded bodies the stores keep, summed over peers
	var ownerNonce uint64
	buyerNonce := make([]uint64, len(buyers))
	mark := types.ZeroWord
	now := uint64(0)
	for height := uint64(1); height <= horizons*soakWindow; height++ {
		flag := types.FlagChain
		if mark == client.StorageAt(contract, asm.SlotMark) {
			flag = types.FlagHead
		}
		price := types.WordFromUint64(10 + height%90)
		if _, err := client.SubmitSet(owner, ownerNonce, contract, flag, mark, price); err != nil {
			t.Fatalf("block %d: set: %v", height, err)
		}
		ownerNonce++
		mark = types.NextMark(mark, price)
		for j := range 2 {
			b := int(height*2+uint64(j)) % len(buyers)
			if _, err := client.SubmitBuy(buyers[b], buyerNonce[b], contract, types.FlagChain, mark, price); err != nil {
				t.Fatalf("block %d: buy: %v", height, err)
			}
			buyerNonce[b]++
		}
		now += 1000
		net.AdvanceTo(now)
		block, err := nodes[height%2].MineAndBroadcast(now / 1000)
		if err != nil {
			t.Fatalf("block %d: %v", height, err)
		}
		if len(block.Txs) != 3 {
			t.Fatalf("block %d holds %d of the 3 transactions submitted for it", height, len(block.Txs))
		}
		bodyBytes += uint64(len(nodes) * len(block.EncodeRLP()))
		now += 2000
		net.AdvanceTo(now)
		if height%soakWindow != 0 {
			continue
		}
		var mem runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&mem)
		s := soakSample{height: height, goroutines: runtime.NumGoroutine(), heap: mem.HeapAlloc}
		for i, n := range nodes {
			if got := n.Chain().Height(); got != height {
				t.Fatalf("block %d: peer %d is at %d", height, i, got)
			}
			if err := n.Chain().SweepErr(); err != nil {
				t.Fatalf("block %d: peer %d: sweep: %v", height, i, err)
			}
			s.stateRecords = append(s.stateRecords, stores[i].Len()-int(height+1)-1)
		}
		t.Logf("block %5d: %d goroutines, heap %6.1f MB, bodies %5.1f MB, state records %v", height, s.goroutines,
			float64(s.heap)/(1<<20), float64(bodyBytes)/(1<<20), s.stateRecords)
		samples = append(samples, s)
	}

	net.Drain()
	head := client.Chain().HeadHash()
	for i, n := range nodes {
		if n.Chain().HeadHash() != head {
			t.Errorf("peer %d ended on another head", i)
		}
		re, err := chain.Open(chain.Config{GasLimit: 5_400_000, Registry: reg}, stores[i])
		if err != nil || re.HeadHash() != head {
			t.Errorf("peer %d's store does not reopen at the head: %v", i, err)
		}
	}
	for _, s := range samples {
		if s.goroutines > before {
			t.Errorf("block %d: %d goroutines, %d before the soak", s.height, s.goroutines, before)
		}
	}
	peak := func(from, to int) []int {
		out := make([]int, len(nodes))
		for _, s := range samples[from:to] {
			for i, r := range s.stateRecords {
				out[i] = max(out[i], r)
			}
		}
		return out
	}
	early, late := peak(3, 5), peak(5, horizons)
	for i := range nodes {
		if late[i] > early[i]*5/4 {
			t.Errorf("peer %d: its store's states grow with its history: peak %d records over horizons 6-10, %d over 4-5", i, late[i], early[i])
		}
	}
	first, last := samples[2], samples[horizons-1]
	perBlock := (float64(last.heap) - float64(first.heap)) / float64(last.height-first.height)
	if perBlock > 16<<10 {
		t.Errorf("the heap grows %.0f B a block over horizons 3-10 (the bodies alone %.0f B): more than the history", perBlock, float64(bodyBytes)/float64(last.height))
	}
}
