package chain

import (
	"errors"
	"math/rand"
	"testing"

	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// horizonModel builds a chain with the given store (nil for a memory
// chain) and ExecCache, and the model of it.
func horizonModel(t *testing.T, seed int64, kv store.Store, cache *ExecCache) (*Chain, *chainModel) {
	t.Helper()
	reg := wallet.NewRegistry()
	writer := wallet.NewKey("horizon-writer")
	reg.Register(writer)
	cfg := DefaultConfig()
	cfg.Registry = reg
	cfg.Store = kv
	cfg.ExecCache = cache
	return newChainModel(t, rand.New(rand.NewSource(seed)), writer, cfg)
}

// TestForkBelowWindowReopensFromTheStore: a store-backed chain keeps
// storeWindow post states below its head and reopens an older fork
// parent from its store — here a block an earlier fork held below its
// tip, whose state only a chain that commits every branch block's state
// has — and lands exactly where the list model and a memory chain fed
// the same blocks do.
func TestForkBelowWindowReopensFromTheStore(t *testing.T) {
	kv := store.NewMem()
	c, m := horizonModel(t, 7, kv, nil)
	twin, _ := horizonModel(t, 7, nil, nil)
	m.grow(4, c, twin)
	m.follow(m.fork(1), c, twin) // blocks 2..5, of which 3 is inner
	m.grow(storeWindow+2, c, twin)
	if depth, kept := m.head().block.Number()-3, len(c.keptPostRoots()); depth <= uint64(kept) {
		t.Fatalf("block 3 is %d below the head, within the %d posts kept", depth, kept)
	}
	m.follow(m.fork(3), c, twin)
	m.check(c, kv)
	m.check(twin, nil)
	if c.Orphaned() != twin.Orphaned() || c.Orphaned() != 3+storeWindow+4 {
		t.Fatalf("%d blocks orphaned, memory twin %d", c.Orphaned(), twin.Orphaned())
	}
	// The chain goes on from the reopened branch.
	m.grow(1, c)
	m.check(c, kv)
}

// hidingStore is a store whose Get misses one key.
type hidingStore struct {
	store.Store
	hidden types.Hash
}

func (s *hidingStore) Get(key []byte) ([]byte, bool) {
	if string(key) == string(s.hidden[:]) {
		return nil, false
	}
	return s.Store.Get(key)
}

// TestForkBelowWindowNeedsItsParentsState: a store-backed chain whose
// store lacks the state of a parent below the window — a datadir written
// before a reorg committed its branch blocks' states — refuses the fork
// with ErrForkTooDeep and is left as it was, where reopening the missing
// root would have panicked the first read of the replay.
func TestForkBelowWindowNeedsItsParentsState(t *testing.T) {
	kv := &hidingStore{Store: store.NewMem()}
	c, m := horizonModel(t, 8, kv, nil)
	m.grow(storeWindow+4, c)
	kv.hidden = m.canon[2].block.Header.StateRoot
	_, err := c.ImportFork(blocksOf(m.fork(2)))
	if !errors.Is(err, ErrForkTooDeep) || !errors.Is(err, ErrUnknownParent) {
		t.Fatalf("a fork on a parent whose state is gone: %v, want ErrForkTooDeep", err)
	}
	if c.Head().Hash() != m.head().hash || c.Orphaned() != 0 {
		t.Fatalf("a refused fork moved the chain to %d", c.Height())
	}
	m.check(c, kv)
}

// TestSharedCacheChainKeepsTheMemoryHorizon: a store-backed chain that
// shares its ExecCache with a chain writing another store adopts that
// chain's post states without writing the nodes it committed first. A
// block it then builds itself has its root in its store, but not the
// subtrees the block did not touch. A fork deeper than storeWindow that
// attaches at that block must validate from the post states the chain
// keeps — memoryWindow of them, as a memory chain — not from its store,
// where the replay would reach a missing node.
func TestSharedCacheChainKeepsTheMemoryHorizon(t *testing.T) {
	cache := NewExecCache(0)
	miner, m := horizonModel(t, 9, store.NewMem(), cache)
	peerKV := store.NewMem()
	peer, _ := horizonModel(t, 9, peerKV, cache)
	// build has builder execute a child of the model's head and adopt it,
	// memoizing it, and importer adopt it from the cache. The body is not
	// empty, so the block has a state root of its own.
	build := func(builder, importer *Chain) {
		t.Helper()
		parent := m.head()
		txs, slots := m.body(parent)
		for len(txs) == 0 {
			txs, slots = m.body(parent)
		}
		header := m.header(parent)
		var res *ExecResult
		builder.ReadHeadState(func(_ *types.Block, st *statedb.StateDB) {
			var err error
			if res, err = builder.Process(st, header, txs); err != nil {
				t.Fatal(err)
			}
		})
		block := &types.Block{Header: header, Txs: txs}
		header.TxRoot = block.TxRoot()
		header.ReceiptRoot, header.StateRoot, header.GasUsed = res.ReceiptRoot, res.StateRoot, res.GasUsed
		mb := m.execute(parent, header, txs, slots)
		if _, err := builder.InsertBuilt(mb.block, res); err != nil {
			t.Fatal(err)
		}
		if _, err := importer.InsertBlock(mb.block); err != nil {
			t.Fatal(err)
		}
		m.adopted(mb)
	}
	for range 3 {
		build(miner, peer)
	}
	build(peer, miner)
	own := m.head()
	for range storeWindow + 2 {
		build(miner, peer)
	}
	root := own.block.Header.StateRoot
	if !hasStateRoot(peerKV, root) || statedb.VerifyState(peerKV, root) == nil {
		t.Fatalf("the peer's store should hold the root of its own block %d but not its whole state", own.block.Number())
	}
	if kept := len(peer.keptPostRoots()); uint64(kept) != peer.Height() {
		t.Fatalf("the peer keeps %d post states below head %d, want all of them", kept, peer.Height())
	}
	m.follow(m.fork(own.block.Number()), miner, peer)
	m.check(peer, nil)
}

// TestPostRetentionIsBounded: after three windows of adopted blocks and
// a reorg (below the window of a chain that reopens fork parents from
// its store, within it otherwise), a chain keeps exactly its window of
// post states below its head, and they are the post states of the
// canonical blocks right below it — none of an orphaned block.
func TestPostRetentionIsBounded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		kv     store.Store
		cache  *ExecCache
		window int
	}{
		{"store", store.NewMem(), nil, storeWindow},
		{"memory", nil, nil, memoryWindow},
		{"store-with-cache", store.NewMem(), NewExecCache(0), memoryWindow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, m := horizonModel(t, 10, tc.kv, tc.cache)
			m.grow(3*tc.window, c)
			m.follow(m.fork(m.head().block.Number()-uint64(tc.window/2+2)), c)
			roots := c.keptPostRoots()
			if len(roots) != tc.window {
				t.Fatalf("%d post states kept below the head, window %d", len(roots), tc.window)
			}
			head := c.Height()
			for i, root := range roots {
				n := head - uint64(len(roots)-i)
				if want := c.BlockByNumber(n).Header.StateRoot; root != want {
					t.Fatalf("the post state kept for block %d has root %s, the canonical block's is %s", n, root.Hex(), want.Hex())
				}
			}
		})
	}
}
