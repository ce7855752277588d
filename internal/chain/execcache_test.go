package chain

import (
	"errors"
	"sync"
	"testing"

	"sereth/internal/statedb"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// cachedChainSetup returns a registry, a shared cache, and a constructor
// for chains joined to it.
func cachedChainSetup(t *testing.T) (*wallet.Registry, *ExecCache, func() *Chain) {
	t.Helper()
	reg := wallet.NewRegistry()
	cache := NewExecCache(0)
	mk := func() *Chain {
		cfg := DefaultConfig()
		cfg.Registry = reg
		cfg.ExecCache = cache
		return New(cfg, genesisWithContract())
	}
	return reg, cache, mk
}

func TestExecCacheSharedAcrossPeers(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg, cache, mk := cachedChainSetup(t)
	reg.Register(alice)

	producer := mk()
	tx := setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)
	block := buildBlock(t, producer, []*types.Transaction{tx})
	producerReceipts, err := producer.InsertBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatal("insert did not populate the cache")
	}

	validator := mk()
	hitsBefore, _ := cache.Stats()
	receipts, err := validator.InsertBlock(block)
	if err != nil {
		t.Fatalf("validator rejected cached block: %v", err)
	}
	hitsAfter, _ := cache.Stats()
	if hitsAfter <= hitsBefore {
		t.Error("validator import did not hit the cache")
	}
	if len(receipts) != 1 || &receipts[0] != &producerReceipts[0] {
		t.Error("cached import did not share the memoized receipts")
	}
	if producer.State().Root() != validator.State().Root() {
		t.Error("peers diverged through the cache")
	}
}

func TestExecCacheRejectsTamperedHeaderClaims(t *testing.T) {
	// A warm cache must not let a peer accept a block whose header lies:
	// tampering any header field changes the block hash, so the lookup
	// misses and full replay rejects it.
	alice := wallet.NewKey("alice")
	reg, _, mk := cachedChainSetup(t)
	reg.Register(alice)

	producer := mk()
	block := buildBlock(t, producer, []*types.Transaction{setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)})
	if _, err := producer.InsertBlock(block); err != nil {
		t.Fatal(err)
	}

	tamperedHeader := *block.Header
	tampered := &types.Block{Header: &tamperedHeader, Txs: block.Txs}
	tampered.Header.GasUsed++
	validator := mk()
	if _, err := validator.InsertBlock(tampered); !errors.Is(err, ErrBadGasUsed) {
		t.Errorf("tampered block through warm cache: %v", err)
	}
	if validator.Height() != 0 {
		t.Error("tampered block advanced the chain")
	}
}

func TestExecCacheRejectsSwappedBody(t *testing.T) {
	// The cache key covers the header only; the body is authenticated by
	// the TxRoot check, which must still run on cache hits.
	alice, bob := wallet.NewKey("alice"), wallet.NewKey("bob")
	reg, _, mk := cachedChainSetup(t)
	reg.Register(alice)
	reg.Register(bob)

	producer := mk()
	block := buildBlock(t, producer, []*types.Transaction{setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)})
	if _, err := producer.InsertBlock(block); err != nil {
		t.Fatal(err)
	}

	swapped := &types.Block{
		Header: block.Header,
		Txs:    []*types.Transaction{setTxFor(bob, 0, types.ZeroWord, 9, types.FlagHead)},
	}
	validator := mk()
	if _, err := validator.InsertBlock(swapped); !errors.Is(err, ErrBadTxRoot) {
		t.Errorf("swapped body through warm cache: %v", err)
	}
}

func TestCacheHoldsOnlyVerifiedExecutions(t *testing.T) {
	// The cache is populated only by an execution that passed the header
	// checks: building and executing a block leaves it empty, and a header
	// that lies about its roots dies in those checks — whether it arrives
	// as a block to replay or as the miner's own build edited after the
	// fact — instead of being laundered into an entry.
	alice := wallet.NewKey("alice")
	reg, cache, mk := cachedChainSetup(t)
	reg.Register(alice)

	producer := mk()
	block, built := buildOnHead(t, producer, aliceSet(alice, 0, 5))
	if cache.Len() != 0 {
		t.Fatal("block build populated the cache before any import")
	}
	lyingHeader := *block.Header
	lyingHeader.StateRoot = types.Hash{0xbb}
	lying := &types.Block{Header: &lyingHeader, Txs: block.Txs}
	if _, err := producer.InsertBlock(lying); !errors.Is(err, ErrBadStateRoot) {
		t.Errorf("lying header survived a replay: %v", err)
	}
	if cache.Len() != 0 {
		t.Error("a block refused by replay left a cache entry")
	}
	sealed := *block.Header
	block.Header.StateRoot = types.Hash{0xbb}
	if _, err := producer.InsertBuilt(block, built); !errors.Is(err, ErrBadStateRoot) {
		t.Errorf("lying header survived the miner's own import: %v", err)
	}
	if cache.Len() != 0 {
		t.Error("a build refused at its own import left a cache entry")
	}
	*block.Header = sealed
	if _, err := producer.InsertBuilt(block, built); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Error("a verified build was not memoized")
	}
}

// TestConcurrentInsertSharedCache drives N validating chains over the
// same block sequence concurrently against one shared cache — the -race
// regression gate for the structure-shared post states and trie nodes.
func TestConcurrentInsertSharedCache(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg, cache, mk := cachedChainSetup(t)
	reg.Register(alice)

	producer := mk()
	const blocks = 8
	chainBlocks := make([]*types.Block, 0, blocks)
	prevMark := types.ZeroWord
	for i := 0; i < blocks; i++ {
		value := uint64(10 + i)
		tx := setTxFor(alice, uint64(i), prevMark, value, types.FlagHead)
		block := buildBlock(t, producer, []*types.Transaction{tx})
		if _, err := producer.InsertBlock(block); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		chainBlocks = append(chainBlocks, block)
		prevMark = types.NextMark(prevMark, types.WordFromUint64(value))
	}

	const peers = 8
	validators := make([]*Chain, peers)
	for i := range validators {
		validators[i] = mk()
	}
	var wg sync.WaitGroup
	errs := make([]error, peers)
	for i := range validators {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, block := range chainBlocks {
				if _, err := validators[i].InsertBlock(block); err != nil {
					errs[i] = err
					return
				}
				// Interleave reads of the shared post state.
				validators[i].ReadState(func(st *statedb.StateDB) {
					_ = st.GetNonce(alice.Address())
				})
				_ = validators[i].State().Root()
			}
		}(i)
	}
	wg.Wait()
	want := producer.State().Root()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("validator %d: %v", i, err)
		}
		if got := validators[i].State().Root(); got != want {
			t.Errorf("validator %d root %s != producer %s", i, got.Hex(), want.Hex())
		}
	}
	if hits, _ := cache.Stats(); hits == 0 {
		t.Error("concurrent imports never hit the shared cache")
	}
}

func TestExecCacheBounded(t *testing.T) {
	cache := NewExecCache(2)
	keys := []ExecKey{
		{BlockHash: types.Hash{1}},
		{BlockHash: types.Hash{2}},
		{BlockHash: types.Hash{3}},
	}
	for _, k := range keys {
		cache.Put(k, &ExecResult{})
	}
	if cache.Len() != 2 {
		t.Fatalf("len = %d, want 2", cache.Len())
	}
	if _, ok := cache.Get(keys[0]); ok {
		t.Error("oldest entry not evicted")
	}
	if _, ok := cache.Get(keys[2]); !ok {
		t.Error("newest entry missing")
	}
	// Re-putting an existing key keeps the first entry.
	first := &ExecResult{GasUsed: 7}
	cache.Put(keys[1], first)
	if entry, _ := cache.Get(keys[1]); entry.GasUsed == 7 {
		t.Error("duplicate Put replaced the original entry")
	}
}
