package sim_test

import (
	"math/rand"
	"runtime"
	"testing"

	"sereth/internal/evm"
	"sereth/internal/scenarios"
	"sereth/internal/sim"
	"sereth/internal/statedb"
	"sereth/internal/types"
)

// fillMachineMemos leaves the evm package's pool holding machines that
// have just hashed another contract's inputs: 32- and 64-byte ones, the
// lengths the Sereth contract hashes, at every boundary-byte residue, so
// whatever a machine kept of its SHA3 memo across Release would sit in
// every memo set a run looks in.
func fillMachineMemos(rng *rand.Rand) {
	decoy := types.Address{19: 0xdc}
	st := statedb.New()
	// copy calldata to memory, hash the first 32 and the first 64 bytes.
	st.SetCode(decoy, []byte{
		byte(evm.PUSH1), 64, byte(evm.PUSH1), 0, byte(evm.PUSH1), 0, byte(evm.CALLDATACOPY),
		byte(evm.PUSH1), 32, byte(evm.PUSH1), 0, byte(evm.SHA3), byte(evm.POP),
		byte(evm.PUSH1), 64, byte(evm.PUSH1), 0, byte(evm.SHA3), byte(evm.POP),
		byte(evm.STOP),
	})
	machines := make([]*evm.EVM, 8)
	for i := range machines {
		machines[i] = evm.New(st, evm.BlockContext{})
		for n := 0; n < 64; n++ {
			input := make([]byte, 64)
			rng.Read(input)
			if res := machines[i].Call(evm.CallContext{Contract: decoy, Input: input, Gas: 100_000}); res.Err != nil {
				panic(res.Err)
			}
		}
	}
	for _, m := range machines {
		m.Release()
	}
}

// TestPooledMachineMemoLeavesGoldensUnmoved runs every golden η scenario
// twice — once after two collections have emptied the machine pool, so
// the run starts on new machines, and once on machines another contract
// used — and demands the same η and the same chain: a block's hash covers
// its state root and its receipt root, so equal hashes are equal receipts
// and equal states, block by block. It holds whether Release empties the
// memo (it does) or only relies on its hits being byte-verified. Serial
// on purpose: the pool is the process's.
func TestPooledMachineMemoLeavesGoldensUnmoved(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, e := range scenarios.EtaTable() {
		t.Run(e.Name, func(t *testing.T) {
			runtime.GC()
			runtime.GC()
			fresh, freshBlocks, err := sim.RunBlocks(e.Make(scenarios.EtaSeed))
			if err != nil {
				t.Fatal(err)
			}
			fillMachineMemos(rng)
			pooled, pooledBlocks, err := sim.RunBlocks(e.Make(scenarios.EtaSeed))
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Efficiency() != pooled.Efficiency() || fresh.BuysSucceeded != pooled.BuysSucceeded || fresh.SetsSucceeded != pooled.SetsSucceeded {
				t.Errorf("η %v (%d buys, %d sets) on new machines, %v (%d, %d) on used ones", fresh.Efficiency(),
					fresh.BuysSucceeded, fresh.SetsSucceeded, pooled.Efficiency(), pooled.BuysSucceeded, pooled.SetsSucceeded)
			}
			if len(freshBlocks) == 0 || len(freshBlocks) != len(pooledBlocks) {
				t.Fatalf("%d blocks on new machines, %d on used ones", len(freshBlocks), len(pooledBlocks))
			}
			for i, b := range freshBlocks {
				if b.Hash() != pooledBlocks[i].Hash() {
					t.Fatalf("block %d: state root %x receipt root %x on new machines, %x %x on used ones", b.Number(),
						b.Header.StateRoot, b.Header.ReceiptRoot, pooledBlocks[i].Header.StateRoot, pooledBlocks[i].Header.ReceiptRoot)
				}
			}
		})
	}
}
