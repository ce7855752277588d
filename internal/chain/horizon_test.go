package chain

import (
	"errors"
	"math/rand"
	"testing"

	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// horizonModel builds a chain with the given store (nil for a memory
// chain) and the model of it.
func horizonModel(t *testing.T, seed int64, kv store.Store) (*Chain, *chainModel) {
	t.Helper()
	reg := wallet.NewRegistry()
	writer := wallet.NewKey("horizon-writer")
	reg.Register(writer)
	cfg := DefaultConfig()
	cfg.Registry = reg
	cfg.Store = kv
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
	c, m := horizonModel(t, 7, kv)
	twin, _ := horizonModel(t, 7, nil)
	m.grow(4, c, twin)
	m.follow(m.fork(1), c, twin) // blocks 2..5, of which 3 is inner
	m.grow(storeWindow+2, c, twin)
	if depth, kept := m.head().block.Number()-3, len(c.keptPostRoots()); depth <= uint64(kept) {
		t.Fatalf("block 3 is %d below the head, within the %d posts kept", depth, kept)
	}
	m.follow(m.fork(3), c, twin) // each chain orphans the fork's depth
	m.check(c, kv)
	m.check(twin, nil)
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
	c, m := horizonModel(t, 8, kv)
	m.grow(storeWindow+4, c)
	kv.hidden = m.canon[2].block.Header.StateRoot
	orphaned, err := c.ImportFork(blocksOf(m.fork(2)))
	if !errors.Is(err, ErrForkTooDeep) || !errors.Is(err, ErrUnknownParent) {
		t.Fatalf("a fork on a parent whose state is gone: %v, want ErrForkTooDeep", err)
	}
	if c.Head().Hash() != m.head().hash || orphaned != 0 {
		t.Fatalf("a refused fork moved the chain to %d", c.Height())
	}
	m.check(c, kv)
}

// TestStoreRefusesAnExecCache: a post state adopted from an ExecCache
// may have been committed by another chain, whose commit marked its trie
// nodes stored, so a chain adopting it would leave them out of its own
// store. New and Open refuse a Config with both, before anything is
// written.
func TestStoreRefusesAnExecCache(t *testing.T) {
	datadir := store.NewMem()
	New(Config{Store: datadir}, nil)
	for _, tc := range []struct {
		name  string
		kv    *store.MemStore
		build func(Config)
	}{
		{"New", store.NewMem(), func(cfg Config) { New(cfg, genesisWithContract()) }},
		{"Open of its datadir", datadir, func(cfg Config) { _, _ = Open(cfg, datadir) }},
		{"Open of a snapshot", store.NewMem(), func(cfg Config) { _, _ = Open(cfg, datadir) }},
	} {
		func() {
			records := tc.kv.Len()
			defer func() {
				if recover() == nil {
					t.Errorf("%s built a chain with a store and an ExecCache", tc.name)
				}
				if tc.kv.Len() != records {
					t.Errorf("%s wrote %d records before refusing", tc.name, tc.kv.Len()-records)
				}
			}()
			cfg := DefaultConfig()
			cfg.Store, cfg.ExecCache = tc.kv, NewExecCache(0)
			tc.build(cfg)
		}()
	}
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
		window int
	}{
		{"store", store.NewMem(), storeWindow},
		{"memory", nil, memoryWindow},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, m := horizonModel(t, 10, tc.kv)
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
