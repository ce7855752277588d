package chain

import (
	"errors"
	"testing"

	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// buildOnHead assembles the next block the way a miner does — on the
// chain's live head state, not on a copy — and returns it with the
// execution the header was built from.
func buildOnHead(t *testing.T, c *Chain, txs []*types.Transaction) (*types.Block, *ExecResult) {
	t.Helper()
	var head *types.Block
	var state *statedb.StateDB
	c.ReadHeadState(func(h *types.Block, _ types.Hash, st *statedb.StateDB) { head, state = h, st })
	header := &types.Header{
		ParentHash: head.Hash(),
		Number:     head.Number() + 1,
		GasLimit:   c.Config().GasLimit,
		Time:       head.Header.Time + 15,
	}
	res, err := c.Process(state, header, txs)
	if err != nil {
		t.Fatalf("execute block: %v", err)
	}
	block := &types.Block{Header: header, Txs: txs}
	header.TxRoot = block.TxRoot()
	header.ReceiptRoot = res.ReceiptRoot
	header.StateRoot = res.StateRoot
	header.GasUsed = res.GasUsed
	return block, res
}

// headState returns the chain's live head state pointer: adopting a built
// execution makes its Post the head, a replay makes a new state.
func headState(c *Chain) *statedb.StateDB {
	var st *statedb.StateDB
	c.ReadState(func(s *statedb.StateDB) { st = s })
	return st
}

func aliceSet(alice *wallet.Key, nonce, value uint64) []*types.Transaction {
	return []*types.Transaction{setTxFor(alice, nonce, types.ZeroWord, value, types.FlagHead)}
}

// TestInsertBuiltMemoizesVerifiedBuild: the miner's import takes the
// execution it built without a lookup, and once that execution has passed
// the header checks it is the one entry every other importer hits — no
// peer replays the block, and all of them adopt the miner's post state.
func TestInsertBuiltMemoizesVerifiedBuild(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg, cache, mk := cachedChainSetup(t)
	reg.Register(alice)

	producer := mk()
	block, built := buildOnHead(t, producer, aliceSet(alice, 0, 5))
	receipts, err := producer.InsertBuilt(block, built)
	if err != nil {
		t.Fatal(err)
	}
	if headState(producer) != built.Post {
		t.Fatal("the miner's import did not adopt the execution it built")
	}
	if len(receipts) != 1 || receipts[0] != built.Receipts[0] {
		t.Fatal("the miner's import did not return the built receipts")
	}
	if hits, misses := cache.Stats(); cache.Len() != 1 || hits != 0 || misses != 0 {
		t.Fatalf("adoption: %d entries, %d hits, %d misses; want 1, 0, 0", cache.Len(), hits, misses)
	}

	for i, peer := range []*Chain{mk(), mk()} {
		if _, err := peer.InsertBlock(block); err != nil {
			t.Fatal(err)
		}
		if headState(peer) != built.Post {
			t.Fatalf("importer %d replayed instead of adopting the miner's execution", i)
		}
		if a, b := producer.State().Root(), peer.State().Root(); a != b {
			t.Fatalf("miner and importer %d diverged: %x vs %x", i, a, b)
		}
	}
	if hits, misses := cache.Stats(); cache.Len() != 1 || hits != 2 || misses != 0 {
		t.Fatalf("two other importers: %d entries, %d hits, %d misses; want 1, 2, 0", cache.Len(), hits, misses)
	}
}

// TestInsertBuiltRejectsTamperedHeader: a header changed between build
// and insert — the execution is still bound to it by identity — is
// refused with the error InsertBlock gives for the same block, the head
// does not move, and the shared cache gains no entry from either refusal.
func TestInsertBuiltRejectsTamperedHeader(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg, cache, mk := cachedChainSetup(t)
	reg.Register(alice)
	tests := []struct {
		name   string
		tamper func(h *types.Header)
		want   error
	}{
		{"state root", func(h *types.Header) { h.StateRoot[0] ^= 1 }, ErrBadStateRoot},
		{"receipt root", func(h *types.Header) { h.ReceiptRoot[0] ^= 1 }, ErrBadReceiptRoot},
		{"gas used", func(h *types.Header) { h.GasUsed++ }, ErrBadGasUsed},
		{"tx root", func(h *types.Header) { h.TxRoot[0] ^= 1 }, ErrBadTxRoot},
		{"number", func(h *types.Header) { h.Number++ }, ErrBadNumber},
		{"parent hash", func(h *types.Header) { h.ParentHash[0] ^= 1 }, ErrUnknownParent},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := mk()
			block, built := buildOnHead(t, c, aliceSet(alice, 0, 5))
			tt.tamper(block.Header)
			before := cache.Len()
			if _, err := c.InsertBuilt(block, built); !errors.Is(err, tt.want) {
				t.Fatalf("InsertBuilt: %v, want %v", err, tt.want)
			}
			if _, err := mk().InsertBlock(block); !errors.Is(err, tt.want) {
				t.Fatalf("InsertBlock of the same block: %v, want %v", err, tt.want)
			}
			if c.Height() != 0 {
				t.Fatal("a refused block moved the head")
			}
			if cache.Len() != before {
				t.Fatalf("a refused block left %d cache entries", cache.Len()-before)
			}
		})
	}
}

// TestInsertBuiltAgreesWithReplay is the differential behind memoizing the
// miner's build: whatever header field is edited after the build, the
// miner's InsertBuilt and an honest replay on a fresh cacheless chain
// accept or refuse alike and land on the same head. An accepted edit is
// memoized under the edited header, and a peer that hits that entry lands
// where the replay did; a refused one leaves no entry.
func TestInsertBuiltAgreesWithReplay(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg, cache, mk := cachedChainSetup(t)
	reg.Register(alice)
	edits := []struct {
		field string
		edit  func(h *types.Header)
	}{
		{"parent hash", func(h *types.Header) { h.ParentHash[0] ^= 1 }},
		{"number", func(h *types.Header) { h.Number++ }},
		{"state root", func(h *types.Header) { h.StateRoot[0] ^= 1 }},
		{"tx root", func(h *types.Header) { h.TxRoot[0] ^= 1 }},
		{"receipt root", func(h *types.Header) { h.ReceiptRoot[0] ^= 1 }},
		{"coinbase", func(h *types.Header) { h.Coinbase[0] ^= 1 }},
		{"difficulty", func(h *types.Header) { h.Difficulty++ }},
		{"gas limit", func(h *types.Header) { h.GasLimit-- }},
		{"gas used", func(h *types.Header) { h.GasUsed++ }},
		{"time", func(h *types.Header) { h.Time++ }},
		{"pow nonce", func(h *types.Header) { h.PowNonce++ }},
	}
	for _, e := range edits {
		t.Run(e.field, func(t *testing.T) {
			miner := mk()
			block, built := buildOnHead(t, miner, aliceSet(alice, 0, 5))
			e.edit(block.Header)
			before := cache.Len()
			_, builtErr := miner.InsertBuilt(block, built)
			replayer := newTestChain(t, reg)
			_, replayErr := replayer.InsertBlock(block)
			if (builtErr == nil) != (replayErr == nil) || (builtErr != nil && builtErr.Error() != replayErr.Error()) {
				t.Fatalf("InsertBuilt: %v; replay: %v", builtErr, replayErr)
			}
			if builtErr != nil {
				if cache.Len() != before {
					t.Fatal("a refused edit was memoized")
				}
				return
			}
			if cache.Len() != before+1 {
				t.Fatalf("an accepted edit added %d cache entries, want 1", cache.Len()-before)
			}
			peer := mk()
			if _, err := peer.InsertBlock(block); err != nil {
				t.Fatal(err)
			}
			want := replayer.Head().Header.StateRoot
			for name, c := range map[string]*Chain{"miner": miner, "cached peer": peer} {
				if c.Head().Hash() != replayer.Head().Hash() || c.State().Root() != want {
					t.Fatalf("%s is not where the replay landed", name)
				}
			}
		})
	}
}

// TestInsertBuiltIgnoresForeignResult: an execution that is not of this
// very header on the state that is still the head is not taken — the
// block is replayed, or refused, exactly as InsertBlock would.
func TestInsertBuiltIgnoresForeignResult(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg, cache, mk := cachedChainSetup(t)
	reg.Register(alice)

	t.Run("another header", func(t *testing.T) {
		c := mk()
		block, built := buildOnHead(t, c, aliceSet(alice, 0, 5))
		sameContent := *block.Header
		twin := &types.Block{Header: &sameContent, Txs: block.Txs}
		before := cache.Len()
		if _, err := c.InsertBuilt(twin, built); err != nil {
			t.Fatal(err)
		}
		if headState(c) == built.Post {
			t.Fatal("an execution bound to another header was adopted")
		}
		if cache.Len() != before+1 {
			t.Fatal("the replay that took its place was not memoized like any import")
		}
	})
	t.Run("execution inputs changed", func(t *testing.T) {
		// The contract never reads TIMESTAMP, so the replay at the new
		// time lands on the same roots and the block is valid — but it
		// must be the replay that says so.
		c := mk()
		block, built := buildOnHead(t, c, aliceSet(alice, 0, 6))
		block.Header.Time++
		if _, err := c.InsertBuilt(block, built); err != nil {
			t.Fatal(err)
		}
		if headState(c) == built.Post {
			t.Fatal("an execution at another block time was adopted")
		}
	})
	t.Run("built on a copy of the head state", func(t *testing.T) {
		c := mk()
		block := buildBlock(t, c, aliceSet(alice, 0, 7)) // Process(c.State(), ...)
		header := block.Header
		built, err := c.Process(c.State(), header, block.Txs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.InsertBuilt(block, built); err != nil {
			t.Fatal(err)
		}
		if headState(c) == built.Post {
			t.Fatal("an execution on a state that is not the head was adopted")
		}
	})
	t.Run("head moved since the build", func(t *testing.T) {
		c := mk()
		stale, built := buildOnHead(t, c, aliceSet(alice, 0, 8))
		winner, _ := buildOnHead(t, c, aliceSet(alice, 0, 9))
		if _, err := c.InsertBlock(winner); err != nil {
			t.Fatal(err)
		}
		if _, err := c.InsertBuilt(stale, built); !errors.Is(err, ErrUnknownParent) {
			t.Fatalf("stale build on a moved head: %v, want %v", err, ErrUnknownParent)
		}
		if c.Head().Hash() != winner.Hash() {
			t.Fatal("a stale build displaced the head")
		}
	})
}

// TestInsertBuiltPersistsLikeReplay: a chain that adopts its own builds
// writes the records a replaying chain writes, and reopens to the same
// head and a state that verifies.
func TestInsertBuiltPersistsLikeReplay(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	open := func() (*Chain, *store.MemStore) {
		kv := store.NewMem()
		cfg := DefaultConfig()
		cfg.Registry = reg
		cfg.Store = kv
		return New(cfg, genesisWithContract()), kv
	}
	miner, minerKV := open()
	follower, followerKV := open()
	prev := types.ZeroWord
	for i := uint64(0); i < 5; i++ {
		tx := setTxFor(alice, i, prev, 10+i, types.FlagHead)
		prev = types.NextMark(prev, types.WordFromUint64(10+i))
		block, built := buildOnHead(t, miner, []*types.Transaction{tx})
		if _, err := miner.InsertBuilt(block, built); err != nil {
			t.Fatal(err)
		}
		if headState(miner) != built.Post {
			t.Fatalf("block %d was replayed, not adopted", block.Number())
		}
		if _, err := follower.InsertBlock(block); err != nil {
			t.Fatal(err)
		}
	}
	if minerKV.Len() != followerKV.Len() {
		t.Fatalf("adopting chain wrote %d records, replaying chain %d", minerKV.Len(), followerKV.Len())
	}
	cfg := DefaultConfig()
	cfg.Registry = reg
	cfg.Store = minerKV
	reopened, err := Open(cfg, minerKV)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Head().Hash() != follower.Head().Hash() {
		t.Fatal("reopened adopting chain is not on the follower's head")
	}
	if err := statedb.VerifyState(minerKV, reopened.Head().Header.StateRoot); err != nil {
		t.Fatalf("persisted state does not verify: %v", err)
	}
	if a, b := reopened.State().Root(), follower.State().Root(); a != b {
		t.Fatalf("reopened root %x, follower %x", a, b)
	}
}
