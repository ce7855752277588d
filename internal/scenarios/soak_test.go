package scenarios

import (
	"runtime"
	"testing"

	"sereth/internal/sim"
	"sereth/internal/store"
)

// soakWindow is the chain's reorg horizon (chain.memoryWindow): a
// store-backed chain keeps the states of the blocks within it and sweeps
// the rest once its head has moved a horizon on.
const soakWindow = 512

// soakBlockMs is the soak's fixed block interval. Block k is mined at
// k·soakBlockMs; a set and a buy go out right after it and a second buy
// half an interval later, so every later block holds one set and two
// buys, and the 250 ms gossip has delivered a block a quarter interval
// after it was mined.
const soakBlockMs = 1000

// soakSample is what one horizon of a soak leaves behind.
type soakSample struct {
	height     uint64
	goroutines int
	heap       uint64 // live heap after a collection
	// stateRecords is, per peer with a memory store, what the store
	// holds besides the block bodies and the head pointer: the records
	// of the states it keeps.
	stateRecords []int
}

// soak runs cfg's population on the soak's workload — fixed-cadence
// blocks, one set and two buys a block — for horizons reorg horizons.
// It steps the population one horizon at a time, hands it to check and
// samples it after every step, then finishes it (which fails unless
// every store reopens at its peer's head).
func soak(t *testing.T, cfg sim.ScenarioConfig, horizons int, check func(height uint64, p *sim.Population)) ([]soakSample, sim.Result) {
	t.Helper()
	blocks := horizons * soakWindow
	cfg.Sets, cfg.Buys = blocks, 2*blocks
	cfg.BlockIntervalMs, cfg.SubmitIntervalMs, cfg.PoissonBlocks = soakBlockMs, soakBlockMs/2, false
	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var samples []soakSample
	for h := 1; h <= horizons; h++ {
		height := uint64(h * soakWindow)
		if err := p.Step(height*soakBlockMs + soakBlockMs/4); err != nil {
			t.Fatalf("block %d: %v", height, err)
		}
		check(height, p)
		var mem runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&mem)
		s := soakSample{height: height, goroutines: runtime.NumGoroutine(), heap: mem.HeapAlloc}
		for _, n := range p.Nodes() {
			if kv, ok := n.Store().(*store.MemStore); ok {
				s.stateRecords = append(s.stateRecords, kv.Len()-int(n.Chain().Height()+1)-1)
			}
		}
		t.Logf("block %5d: %d goroutines, heap %6.1f MB, state records %v", height, s.goroutines, float64(s.heap)/(1<<20), s.stateRecords)
		samples = append(samples, s)
	}
	res, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return samples, res
}

// checkGoroutines fails for every sample holding more goroutines than
// ran before the soak.
func checkGoroutines(t *testing.T, samples []soakSample, before int) {
	t.Helper()
	for _, s := range samples {
		if s.goroutines > before {
			t.Errorf("block %d: %d goroutines, %d before the soak", s.height, s.goroutines, before)
		}
	}
}

// TestSoakHoldsItsWindow runs the paper's three-peer rig — a semantic
// miner, a baseline miner and a Sereth client, each persisting into a
// store of its own, on the default full mesh with 250 ms gossip — for
// ten reorg horizons of blocks, each block a set and two buys, and
// samples the population after every horizon. Deterministic: one
// goroutine drives the model clock, and every peer sweeps inside its own
// adoptions.
//
// It asserts that every peer is on one head after every horizon; that no
// goroutine outlives a horizon; that a store keeps the states of its
// horizon, not of its history (the peak of the last five horizons within
// a quarter of the peak of the two before); and that the heap grows with
// the history a node keeps by design — each block's body in memory and
// in its store, and its receipts, which ROADMAP item 5 bounds — and with
// nothing else: at most 16 KB a block for the three peers. It measures
// ≈ 6 KB, the bodies in the stores ≈ 2 KB of it; keeping every post
// state adds ≈ 16 KB. The miner's half, that the scratch a strategy
// keeps between builds is bounded by the largest ordering and not by the
// number of builds, is internal/miner's TestScratchStaysBoundedOverBuilds,
// which can see the scratch. p2p.Network's duplicate filter is only used
// on multihop topologies, so this mesh does not exercise it:
// TestSoakBoundsTheGossipFilter does.
func TestSoakHoldsItsWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("the soak mines 5 120 blocks on three persisted peers")
	}
	const horizons = 10
	before := runtime.NumGoroutine()
	cfg := sim.SerethClient(0, 1)
	cfg.Name, cfg.SemanticFraction, cfg.Persist = "soak", 0.5, true
	samples, res := soak(t, cfg, horizons, func(height uint64, p *sim.Population) {
		nodes := p.Nodes()
		head := nodes[0].Chain().HeadHash()
		for i, n := range nodes {
			if got := n.Chain().Height(); got != height || n.Chain().HeadHash() != head {
				t.Fatalf("block %d: peer %d is at %d, on another head: %t", height, i, got, n.Chain().HeadHash() != head)
			}
			if err := n.Chain().SweepErr(); err != nil {
				t.Fatalf("block %d: peer %d: sweep: %v", height, i, err)
			}
		}
	})
	if !res.Converged || res.BuysIncluded != res.BuysSubmitted || res.SetsIncluded != res.SetsSubmitted {
		t.Errorf("converged %t, %d of %d buys and %d of %d sets included", res.Converged,
			res.BuysIncluded, res.BuysSubmitted, res.SetsIncluded, res.SetsSubmitted)
	}
	checkGoroutines(t, samples, before)
	peak := func(from, to int) []int {
		out := make([]int, len(samples[0].stateRecords))
		for _, s := range samples[from:to] {
			for i, r := range s.stateRecords {
				out[i] = max(out[i], r)
			}
		}
		return out
	}
	early, late := peak(3, 5), peak(5, horizons)
	for i := range early {
		if late[i] > early[i]*5/4 {
			t.Errorf("peer %d: its store's states grow with its history: peak %d records over horizons 6-10, %d over 4-5", i, late[i], early[i])
		}
	}
	first, last := samples[2], samples[horizons-1]
	perBlock := (float64(last.heap) - float64(first.heap)) / float64(last.height-first.height)
	t.Logf("heap growth over horizons 3-10: %.0f B a block", perBlock)
	if perBlock > 16<<10 {
		t.Errorf("the heap grows %.0f B a block over horizons 3-10: more than the history", perBlock)
	}
}

// TestSoakRecoversFromACrash steps the crash family's population — seven
// persisting peers, one of them killed mid-commit at a seeded instant
// and restarted from its salvaged datadir 30 s later — for five reorg
// horizons of the soak's blocks. The crash must recover and the
// population converge, no goroutine may outlive a horizon, and every
// store must reopen at its peer's head. The race detector makes the
// 2 560 blocks on seven peers too slow.
func TestSoakRecoversFromACrash(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the soak mines 2 560 blocks on seven persisted peers")
	}
	before := runtime.NumGoroutine()
	samples, res := soak(t, sim.CrashSingle(1), 5, func(uint64, *sim.Population) {})
	t.Logf("crash: %+v", *res.Crash)
	if c := res.Crash; c.Crashes < 1 || c.Recoveries != c.Crashes || c.Incomplete != 0 {
		t.Errorf("crash: %+v", *c)
	}
	if !res.Converged {
		t.Error("the population did not converge after the crash")
	}
	checkGoroutines(t, samples, before)
}

// soakSeenBound bounds the multihop duplicate filter of
// TestSoakBoundsTheGossipFilter: a few seconds of gossip, where each
// block and its three transactions reach six peers. A filter that keeps
// every key holds ≈ 12 000 after one horizon.
const soakSeenBound = 1024

// TestSoakBoundsTheGossipFilter steps six peers — two semantic and two
// baseline miners and two Sereth clients — on a multihop ring, where
// gossip is relayed hop by hop and every peer's receipt of a payload is
// kept in the network's duplicate filter, for three reorg horizons of
// the soak's blocks. The filter must hold no more than a few seconds of
// gossip after every horizon, the peers must be on one head, no
// goroutine may outlive a horizon, and the population must converge.
func TestSoakBoundsTheGossipFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("the soak mines 1 536 blocks on six peers")
	}
	before := runtime.NumGoroutine()
	cfg := sim.SerethClient(0, 1)
	cfg.Name, cfg.SemanticFraction, cfg.Topology = "soak-ring", 0.5, "ring"
	cfg.SemanticMiners, cfg.BaselineMiners, cfg.Clients = 2, 2, 2
	samples, res := soak(t, cfg, 3, func(height uint64, p *sim.Population) {
		keys := p.Network().SeenKeys()
		t.Logf("block %5d: the duplicate filter holds %d keys", height, keys)
		if keys > soakSeenBound {
			t.Errorf("block %d: the duplicate filter holds %d keys, bound %d", height, keys, soakSeenBound)
		}
	})
	if !res.Converged {
		t.Error("the ring did not converge")
	}
	checkGoroutines(t, samples, before)
}
