package scenarios

import (
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"sereth/internal/chain"
	"sereth/internal/keccak"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// replayCount inserts the fixture block on a fresh chain and returns
// the keccak invocation count the insertion cost plus the receipts, so
// callers can pin both the hash budget and bit-identity of the outcome.
func replayCount(t *testing.T, f *ReplayFixture, c *chain.Chain) (uint64, []types.Receipt) {
	t.Helper()
	before := keccak.Invocations()
	receipts, err := c.InsertBlock(f.Block)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	return keccak.Invocations() - before, receipts
}

// TestReplayKeccakCount pins the hash budget of a full 100-tx block
// replay in absolute digests. Warm (shared frozen instances whose
// signature verdicts are cached for the fixture registry — the state a
// gossiped, pool-admitted transaction reaches every real importer in)
// it costs exactly 15; a cold registry recomputes one keyed keccak per
// signature on top. (121 until an insert hashed its header once instead
// of four times and the contract account kept its secure-trie key; 117
// until the receipt root became one digest over the receipts' encodings
// instead of one per receipt and one over the list, the chain kept its
// head's hash beside the head and a code-less account shared the empty
// code hash.)
// Receipts are bit-identical either way. The raw-sponge differential for
// the interpreter's elision lives in internal/evm against CallGeneric; a
// drift here means a digest path stopped (or started) eliding.
func TestReplayKeccakCount(t *testing.T) {
	f := NewReplayFixture(100)

	// A cold registry (same Owner key, fresh Registry instance) measures
	// un-cached verification: the pre-elision baseline.
	coldReg := wallet.NewRegistry()
	coldReg.Register(f.Owner)
	coldChain := chain.New(chain.Config{GasLimit: f.Block.Header.GasLimit, Registry: coldReg}, f.Genesis)
	cold, coldReceipts := replayCount(t, f, coldChain)

	// Warm-up: the cold run re-tagged the shared instances with
	// coldReg; restore the fixture registry's verified flags.
	if _, err := f.NewChain(nil).InsertBlock(f.Block); err != nil {
		t.Fatalf("warm-up insert: %v", err)
	}
	warm, warmReceipts := replayCount(t, f, f.NewChain(nil))

	if !slices.Equal(coldReceipts, warmReceipts) {
		t.Fatal("warm replay produced different receipts than the cold-registry replay")
	}
	if warm != 15 || cold != 115 {
		t.Fatalf("keccak/100-tx replay: warm %d (want 15), cold registry %d (want 115)", warm, cold)
	}
}

// TestParallelReplayElidesIdentically pins the speculative lane to the
// same hash budget and results: the parallel processor's per-worker
// machines receive the same per-tx hints through the shared
// applyTransaction oracle, so a parallel replay of the same body must
// not exceed the sequential elided count (workers may re-run
// transactions serially on conflicts, which can only add counted
// hashes, never skip elision).
func TestParallelReplayElidesIdentically(t *testing.T) {
	f := NewReplayFixture(100)
	// Warm the verified flags for the fixture registry.
	if _, err := f.NewChain(nil).InsertBlock(f.Block); err != nil {
		t.Fatalf("warm-up insert: %v", err)
	}
	seq, seqReceipts := replayCount(t, f, f.NewChain(nil))

	par := chain.New(chain.Config{
		GasLimit: f.Block.Header.GasLimit, Registry: f.Registry,
		Parallel: true, ParallelWorkers: 4, ParallelThreshold: 1,
	}, f.Genesis)
	before := keccak.Invocations()
	receipts, err := par.InsertBlock(f.Block)
	if err != nil {
		t.Fatalf("parallel insert: %v", err)
	}
	parCount := keccak.Invocations() - before

	if !slices.Equal(receipts, seqReceipts) {
		t.Fatal("parallel elided replay diverged from sequential receipts")
	}
	// The chained-set body is maximally conflict-dense: every tx is
	// re-run through the serial lane, which still elides via the hint.
	// Allow re-run slack but demand the parallel lane stays well under
	// the 521 hashes the body cost before elision — 2x the sequential
	// elided count bounds it tightly in practice.
	if parCount > 2*seq {
		t.Fatalf("parallel replay keccak count %d exceeds 2x sequential elided count %d", parCount, seq)
	}
	t.Logf("keccak/100-tx replay: sequential elided %d, parallel elided %d", seq, parCount)
}

// insertAllocs returns the heap allocations of one InsertBlock of the
// fixture block on a fresh chain — the quantity the replay/insert-*
// BENCH rows reported as allocs/op (chain construction runs with the
// benchmark timer stopped, so it is measured and subtracted here) — as
// the fewest of 25 single runs. The collector is held off while
// counting: a GC cycle empties the sync.Pools behind the interpreter's
// frames and would add their refill to a run.
func insertAllocs(f *ReplayFixture, cache *chain.ExecCache) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fewest := math.Inf(1)
	for i := 0; i < 25; i++ {
		fewest = min(fewest, testing.AllocsPerRun(1, func() {
			if _, err := f.NewChain(cache).InsertBlock(f.Block); err != nil {
				panic(err)
			}
		}))
	}
	return fewest - testing.AllocsPerRun(25, func() { f.NewChain(cache) })
}

// TestReplayAllocsPinned pins the two columns that drifted unnoticed
// between BENCH files (replay/insert-100tx-full 423 → 437,
// replay/insert-100tx-cached 63 → 79): a change that moves either now
// fails here instead of waiting for someone to diff BENCH files. If the
// move is intended, update the constants and say so. Measured on
// go1.24.0. The cached insert is deterministic and pinned exactly; a
// full replay saves one allocation on about one insert in eight (map
// growth under the per-process hash seed), so it is pinned to that
// two-value range. The range moved on purpose twice: 436..437 → 434..435
// when contract storage became shared (Process's copy of the contract
// account and the sender account the block creates each stopped
// allocating a storage map of their own), and 434..435 → 265..266 when
// trie nodes, accounts and headers began to encode straight into their
// buffers and the trie to write its own unhashed nodes in place (a
// header hash no longer allocates at all, which is also what took the
// cached insert from 79 to 2: it is five block hashes and two map
// inserts), and 265..266 → 156..157 when a call's program counter moved
// into its pooled frame (one allocation a transaction), Process began to
// take its journal and its machine from pools, a plain account stopped
// owning a storage trie and a state copy became slabs, 156..157 →
// 55..56 when the tx root began to encode into one flat buffer (the Item
// tree cost a copy of every transaction hash) and RETURN to write into
// the machine's own buffer, and 55..56 → 42..43 when a trie node stopped
// keeping a copy of its encoding (one allocation per node hashed) and a
// storage flush began to hand the trie its values in one slab, and
// 42..43 → 30..31 when a trie leaf became one object with its value and
// nibbles, written in place while unhashed, and a state flush began to
// encode its accounts into one slab, and 30..31 → 26..27 when the dirty
// accounts became a flag and a pooled list, a code-less account began to
// share the empty code hash and the receipt root to encode into one
// buffer, and 26..27 → 23..24 when a state copy began to share the
// generations that hold its accounts (one allocation, where it rebuilt
// the account map and copied every account and storage-trie handle) and
// an account to encode into its own slot, and 23..24 → 21..22 when the
// receipts became one slab of values, not a slab and an array of
// pointers into it, and the receipt root streamed into a hasher on the
// stack instead of encoding into a heap buffer, and 21..22 → 18..19 (the
// cached insert 2 → 1) when a new chain's block list began with room for
// the blocks a short run adopts, so the first adoption no longer grows it,
// and a contract's storage overlay became a pooled map.
func TestReplayAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	f := NewReplayFixture(100)
	warm := chain.NewExecCache(0)
	if _, err := f.NewChain(warm).InsertBlock(f.Block); err != nil {
		t.Fatal(err)
	}
	if got := insertAllocs(f, nil); got < 18 || got > 19 {
		t.Errorf("replay/insert-100tx-full: %v allocs per insert, pinned 18..19", got)
	}
	if got := insertAllocs(f, warm); got != 1 {
		t.Errorf("replay/insert-100tx-cached: %v allocs per insert, pinned 1", got)
	}
}
