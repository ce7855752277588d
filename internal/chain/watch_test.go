package chain

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sereth/internal/keccak"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// feed folds a chain's settlement feed: a block counts 1 while the feed
// says the chain holds it canonical and 0 once a fork has orphaned it,
// and the receipts it was adopted with are kept until then. last and
// adopted describe the block it saw last, err the first thing it saw out
// of order.
type feed struct {
	count    map[types.Hash]int
	receipts map[types.Hash][]types.Receipt
	last     uint64
	adopted  bool
	err      error
}

// watch subscribes a feed to c, seeded with c's canonical chain as it
// stands: Watch reports only what changes after it.
func watch(c *Chain) *feed {
	f := &feed{count: map[types.Hash]int{}, receipts: map[types.Hash][]types.Receipt{}, last: c.Height(), adopted: true}
	for n := c.Base(); n <= c.Height(); n++ {
		f.count[c.BlockByNumber(n).Hash()] = 1
	}
	c.Watch(f.see)
	return f
}

// see is the watcher. A fork's orphans come newest first and its branch
// follows from the lowest orphan's height up, so each block is one above
// the last (adoptions in a row), one below it (orphans in a row) or at
// its height (the switch from one to the other). The hash the feed hands
// over, which it does not derive from the header, must be the header's.
func (f *feed) see(b *types.Block, hash types.Hash, receipts []types.Receipt, adopted bool) {
	want := f.last
	switch {
	case adopted && f.adopted:
		want++
	case !adopted && !f.adopted:
		want--
	}
	if f.err == nil && (b.Number() != want || hash != b.Hash()) {
		f.err = fmt.Errorf("the feed handed block %d (adopted %v) after block %d (adopted %v), or under another hash", b.Number(), adopted, f.last, f.adopted)
	}
	if f.err == nil && !adopted && !slices.Equal(receipts, f.receipts[hash]) {
		f.err = fmt.Errorf("orphaned block %d came with receipts other than it was adopted with", b.Number())
	}
	f.last, f.adopted = b.Number(), adopted
	if adopted {
		f.count[hash]++
		f.receipts[hash] = receipts
		return
	}
	f.count[hash]--
	delete(f.receipts, hash)
}

// matches fails the test unless the feed folds to the model's canonical
// chain: count 1 for each of its blocks and 0 for every other block the
// feed handed over, and for each canonical block the feed saw adopted,
// the model's receipts, which the chain still holds.
func (f *feed) matches(m *chainModel, c *Chain) {
	m.t.Helper()
	if f.err != nil {
		m.t.Fatal(f.err)
	}
	canonical := make(map[types.Hash]bool, len(m.canon))
	for _, mb := range m.canon {
		canonical[mb.hash] = true
		if f.count[mb.hash] != 1 {
			m.t.Fatalf("canonical block %d counts %d in the feed's fold", mb.block.Number(), f.count[mb.hash])
		}
		if r, ok := f.receipts[mb.hash]; ok && (!slices.Equal(r, mb.receipts) || !slices.Equal(c.Receipts(mb.hash), r)) {
			m.t.Fatalf("canonical block %d: the feed's receipts, the chain's and the model's differ", mb.block.Number())
		}
	}
	for hash, n := range f.count {
		if !canonical[hash] && n != 0 {
			m.t.Fatalf("block %s, not canonical, counts %d in the feed's fold", hash.Hex(), n)
		}
	}
}

// TestWatchAddsNoDigest counts, not times, what a watcher costs a chain
// in digests: an InsertBlock and an ImportFork that orphans it compute
// exactly as many on a chain with a watcher as on one without, over the
// same shared, warmed instances. The feed hands an orphan over under its
// child's ParentHash and the new head under the hash the import derived.
func TestWatchAddsNoDigest(t *testing.T) {
	reg := wallet.NewRegistry()
	writer := wallet.NewKey("watch-writer")
	reg.Register(writer)
	cfg := DefaultConfig()
	cfg.Registry = reg
	warm, m := newChainModel(t, rand.New(rand.NewSource(1)), writer, cfg)
	head := m.child(m.head())
	branch := m.branch(m.canon[0], 2)
	// The first import memoizes what the shared instances keep: transaction
	// hashes, signature verdicts and tx roots.
	if _, err := warm.InsertBlock(head.block); err != nil {
		t.Fatal(err)
	}
	if _, err := warm.ImportFork(blocksOf(branch)); err != nil {
		t.Fatal(err)
	}
	digests := func(c *Chain) (insert, fork uint64) {
		start := keccak.Invocations()
		if _, err := c.InsertBlock(head.block); err != nil {
			t.Fatal(err)
		}
		insert = keccak.Invocations() - start
		start = keccak.Invocations()
		if orphaned, err := c.ImportFork(blocksOf(branch)); err != nil || orphaned != 1 {
			t.Fatalf("fork: %d orphaned, %v", orphaned, err)
		}
		return insert, keccak.Invocations() - start
	}
	plainInsert, plainFork := digests(New(cfg, modelGenesis()))
	watched := New(cfg, modelGenesis())
	seen := 0
	watched.Watch(func(*types.Block, types.Hash, []types.Receipt, bool) { seen++ })
	insert, fork := digests(watched)
	t.Logf("insert %d digests, fork %d", insert, fork)
	if insert != plainInsert || fork != plainFork {
		t.Errorf("with a watcher an insert takes %d digests and a fork %d; without, %d and %d", insert, fork, plainInsert, plainFork)
	}
	if seen != 4 {
		t.Errorf("the watcher saw %d blocks, want 4: one adopted, then one orphaned and two adopted", seen)
	}
}
