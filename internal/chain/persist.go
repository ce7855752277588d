// This file implements chain persistence, restart recovery and the
// snapshot a joining peer boots from — one serialised form, one boot
// path. With a Config.Store attached, every adopted block commits its
// post state's dirty trie paths, its RLP body and a head pointer into
// the flat store as one batch, and a reorg its whole branch as one; the
// store applies a batch whole or not at all, across a crash too, so
// what survives a crash is the store's business alone. Open rebuilds a
// chain from those records WITHOUT replaying a single transaction —
// blocks decode straight from the log and head state reopens lazily
// from its root. Export writes the same records for the head alone into
// another store, so a snapshot IS a datadir, and a joiner adopts it
// through the Open a restart uses. A content-addressed trie node is never
// dead to the store, so the chain sweeps it (Sweep): it marks what the
// states within its reorg horizon reach, and the store drops the rest.
//
// Store layout (alongside the raw 32-byte trie-node and 'c'-prefixed
// code records staged through statedb.StageTo):
//
//	'b' || uint64be(number) -> block RLP   (last write wins on reorgs)
//	"head"                  -> uint64be(number) of the canonical head
//
// Receipts are not persisted: a recovered node serves history headers
// and live state; per-block receipts regenerate on demand by replaying
// the single block of interest against its parent state if ever needed.

package chain

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/trie"
	"sereth/internal/types"
)

// ErrNoHead marks a store with no recoverable chain in it.
var ErrNoHead = errors.New("chain: store has no head record")

var headKey = []byte("head")

func blockKey(n uint64) []byte {
	k := make([]byte, 9)
	k[0] = 'b'
	binary.BigEndian.PutUint64(k[1:], n)
	return k
}

// persistLocked writes a run of adopted blocks — one block, or the
// branch a reorg switched to — to the store in one Write: the new trie
// nodes and code of every block's state (states[i] is blocks[i]'s, so
// every canonical block's state is in the store and a later fork can
// reopen any of them as its parent), their bodies, and the head pointer
// naming the last. A crash leaves all of it or none. It syncs when the
// run holds a multiple of SyncEvery.
func (c *Chain) persistLocked(blocks []*types.Block, states []*statedb.StateDB) error {
	b := &c.batch
	b.Reset()
	for i, st := range states {
		if root := st.StageTo(b); root != blocks[i].Header.StateRoot {
			// Defensive: the block was validated against this exact state.
			return fmt.Errorf("%w: committed %s, header %s", ErrBadStateRoot, root.Hex(), blocks[i].Header.StateRoot.Hex())
		}
	}
	stageHead(b, blocks...)
	if err := c.cfg.Store.Write(b); err != nil {
		return err
	}
	c.written += int64(b.LogBytes())
	for _, st := range states {
		st.Stored()
	}
	tip := blocks[len(blocks)-1]
	if n := uint64(c.cfg.SyncEvery); n > 0 && tip.Number()-tip.Number()%n >= blocks[0].Number() {
		if sy, ok := c.cfg.Store.(store.Syncer); ok {
			return sy.Sync()
		}
	}
	return nil
}

// stageHead stages the bodies of a run of blocks and the head pointer
// naming the last.
func stageHead(b *store.Batch, blocks ...*types.Block) {
	for _, block := range blocks {
		b.Put(blockKey(block.Number()), block.EncodeRLP())
	}
	var num [8]byte
	binary.BigEndian.PutUint64(num[:], blocks[len(blocks)-1].Number())
	b.Put(headKey, num[:])
}

// Sweep is a mark and a sweep of the chain's store: Export's walk over
// the states of the canonical blocks within the reorg horizon, with one
// mark set, marks their nodes and code blobs, and the store keeps those,
// the bodies and the head pointer. No fork (postAt) and no reopen reads
// what it drops. Only a chain that reopens forks from its store sweeps.
//
// The mark, most of the work, reads only flushed states and the store,
// so blocks import and readers read beside it. The chain is locked only
// to mark what it adopted meanwhile, and for the store's rewrite. A
// failed sweep leaves the log as it was.
func (c *Chain) Sweep() (store.CompactStats, error) {
	if !reopensForks(c.cfg) {
		return store.CompactStats{}, errors.New("chain: sweep: no store of its own")
	}
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()
	return c.sweep()
}

// maybeSweep sweeps, unless a sweep is running, once the head is a
// horizon past the last sweep (or the open) and the chain has written as
// many bytes as that sweep kept: a byte written pays for at most one
// copied. An adoption calls it with the chain unlocked. A sweep that
// fails is SweepErr's, and the next waits a horizon.
func (c *Chain) maybeSweep() {
	if !reopensForks(c.cfg) || !c.sweepMu.TryLock() {
		return
	}
	defer c.sweepMu.Unlock()
	c.mu.RLock()
	due := c.blocks[len(c.blocks)-1].Number() >= c.sweptAt+memoryWindow && c.written >= c.kept
	c.mu.RUnlock()
	if due {
		_, _ = c.sweep()
	}
}

// SweepErr returns why the chain's last sweep failed, or nil if it did
// not fail or none has run. The blocks it followed stay adopted.
func (c *Chain) SweepErr() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sweepErr
}

// sweep sweeps; the caller holds sweepMu.
func (c *Chain) sweep() (store.CompactStats, error) {
	marked := make(map[types.Hash]struct{})
	codes := make(map[string]struct{})
	visit := func(key, _ []byte) {
		if statedb.IsCodeKey(key) {
			codes[string(key)] = struct{}{}
		}
	}
	mark := func(states []*statedb.StateDB) error {
		for _, st := range states {
			if err := st.Walk(marked, visit); err != nil {
				return err
			}
		}
		return nil
	}
	c.mu.RLock()
	states := c.horizonLocked()
	c.mu.RUnlock()
	err := mark(states)

	c.mu.Lock()
	defer c.mu.Unlock()
	var stats store.CompactStats
	if err == nil {
		// The states adopted during the mark: all but their new records
		// are marked already, and a walk skips what is.
		err = mark(c.horizonLocked())
	}
	if err == nil {
		stats, err = c.cfg.Store.Compact(func(key []byte) bool {
			if len(key) == len(types.Hash{}) {
				_, ok := marked[types.Hash(key)]
				return ok
			}
			_, ok := codes[string(key)]
			return ok || !statedb.IsCodeKey(key)
		})
	}
	c.sweptAt, c.written = c.blocks[len(c.blocks)-1].Number(), 0
	if err != nil {
		c.sweepErr = fmt.Errorf("chain: sweep: %w", err)
		return stats, c.sweepErr
	}
	c.kept, c.sweepErr = stats.BytesAfter, nil
	return stats, nil
}

// horizonLocked returns the post states of the canonical blocks within
// the reorg horizon that the chain keeps or reopens: what a sweep marks.
func (c *Chain) horizonLocked() []*statedb.StateDB {
	states := make([]*statedb.StateDB, 0, memoryWindow+1)
	for depth := uint64(0); depth <= memoryWindow && depth < uint64(len(c.blocks)); depth++ {
		if st := c.postAt(depth); st != nil {
			states = append(states, st)
		}
	}
	return states
}

// exportChunk is how much of an export is staged before it is written.
const exportChunk = 4 << 20

// Export writes the current head into dst as the records a store holds
// for it: every trie node and code blob reachable from the head's state
// root (statedb.Walk, a sweep's mark of the head alone — not the nodes
// earlier blocks superseded), then
// the head block and the head pointer, in the last batch. dst then IS a
// datadir whose chain is that one block: Open recovers it, a node
// restarts on it, and a joiner handed it as a snapshot adopts it after
// verifying it.
// Every chain can serve its head — built in memory, backed by a store,
// or recovered from one (what its lazy state has not touched is read
// through its store). The walk writes nothing to the head state, which
// other chains and readers may share.
func (c *Chain) Export(dst store.Store) error {
	c.mu.RLock()
	head, state := c.blocks[len(c.blocks)-1], c.state
	c.mu.RUnlock()

	var b store.Batch
	var werr error
	err := state.Walk(make(map[types.Hash]struct{}), func(key, value []byte) {
		if werr != nil {
			return
		}
		b.Put(key, value)
		if b.Size() >= exportChunk {
			werr = dst.Write(&b)
			b.Reset()
		}
	})
	if err == nil {
		err = werr
	}
	if err == nil {
		stageHead(&b, head)
		err = dst.Write(&b)
	}
	if err != nil {
		return fmt.Errorf("chain: export: %w", err)
	}
	return nil
}

// HasHead reports whether kv holds a recoverable chain.
func HasHead(kv store.Store) bool {
	_, ok := kv.Get(headKey)
	return ok
}

// Open builds a chain from the records in kv: a datadir a chain with
// Config.Store = kv wrote, or an Export. Every canonical block (from
// the recorded base up to the head pointer) is decoded into memory —
// cheap, since nothing is re-executed — and head state reopens lazily
// from the head block's state root. The chain:
//
//   - accepts new blocks exactly like the original (its head state
//     resolves reads through kv on demand);
//   - keeps no post state below the head at first. Without an
//     ExecCache, ImportFork reopens a fork's parent within the reorg
//     horizon from the store (a parent whose state a datadir written
//     before reorgs committed their branch blocks' states lacks is
//     refused with ErrForkTooDeep, and the node falls back to block
//     sync), and the chain sweeps the store once its head is a horizon
//     past the open; with one, it refuses forks below the head until
//     adopted blocks fill its window again;
//   - has no receipts for historical blocks.
//
// kv is what the chain reads; cfg.Store, as always, is what it writes.
//
// When they are the same store this is a restart, and the store is
// trusted unless it reports dirty salvage (a torn trailing batch or
// quarantined corruption repaired on reopen). Then Open does not
// believe the head record: it verifies the head block's complete state
// (account trie, storage tries, code blobs) and, if the newest records
// did not survive intact, walks the head backwards to the deepest block
// whose state verifies — the last truly durable commit — then repoints
// the head record there. A store that salvaged cleanly skips the
// (O(state size)) verification entirely.
//
// When they differ, kv is a snapshot somebody else wrote. Nothing in it
// is trusted and nothing in it is repaired: the head state is verified
// in full before anything is adopted, and the first missing, altered or
// undecodable record rejects the snapshot with nothing written. A
// verified head is then copied into cfg.Store (Export) and the chain
// reads from there, so the bootstrap is durable and kv can be closed;
// with no cfg.Store the chain keeps reading through kv and persists
// nothing.
func Open(cfg Config, kv store.Store) (*Chain, error) {
	headB, ok := kv.Get(headKey)
	if !ok {
		return nil, ErrNoHead
	}
	if len(headB) != 8 {
		return nil, fmt.Errorf("chain: corrupt head record (%d bytes)", len(headB))
	}
	head := binary.BigEndian.Uint64(headB)

	if kv != cfg.Store {
		c, err := openVerified(cfg, kv, head)
		if err != nil || cfg.Store == nil {
			return c, err
		}
		if err := c.Export(cfg.Store); err != nil {
			return nil, err
		}
		return openAt(cfg, cfg.Store, head)
	}
	suspect := false
	if sv, ok := kv.(store.Salvager); ok {
		suspect = sv.Salvage().Dirty()
	}
	if !suspect {
		c, err := openAt(cfg, kv, head)
		if err != nil || hasStateRoot(kv, c.Head().Header.StateRoot) {
			return c, err
		}
		// A clean log whose head names a block it holds no state for: a
		// log written before a batch survived a crash whole, cut in a
		// reorg's write after branch bodies that replaced the one the
		// head record names.
	}
	var firstErr error
	for num := head; ; num-- {
		c, err := openVerified(cfg, kv, num)
		if err == nil {
			if num != head {
				// Repoint the head record at the block that
				// actually survived, so the next open is clean.
				var nb [8]byte
				binary.BigEndian.PutUint64(nb[:], num)
				if perr := kv.Put(headKey, nb[:]); perr != nil {
					return nil, perr
				}
			}
			return c, nil
		}
		if firstErr == nil {
			firstErr = err
		}
		if num == 0 {
			return nil, fmt.Errorf("chain: no verifiable durable head after salvage: %w", firstErr)
		}
	}
}

// hasStateRoot reports whether kv holds the root record of the state
// committed at root: what a trusted open checks before it reads through
// it.
func hasStateRoot(kv store.Store, root types.Hash) bool {
	if root == trie.EmptyRoot {
		return true
	}
	_, ok := kv.Get(root[:])
	return ok
}

// openVerified is openAt for a head that has yet to earn trust: the
// chain is returned only if its complete head state verifies.
func openVerified(cfg Config, kv store.Store, head uint64) (*Chain, error) {
	c, err := openAt(cfg, kv, head)
	if err == nil {
		err = statedb.VerifyState(kv, c.Head().Header.StateRoot)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// openAt builds, from the records in kv, the chain whose head is block
// number head.
func openAt(cfg Config, kv store.Store, head uint64) (*Chain, error) {
	// Walk down from the head following parent hashes, so stale records
	// from abandoned branches (last-write-wins leftovers below a reorg
	// point) can never splice into the recovered chain.
	blocks := make([]*types.Block, 0, head+1)
	var want types.Hash
	haveWant := false
	num := head
	for {
		enc, ok := kv.Get(blockKey(num))
		if !ok {
			if haveWant {
				// History bottoms out above 0: a snapshot-bootstrapped
				// datadir. Everything below its base was never stored.
				break
			}
			return nil, fmt.Errorf("chain: missing block record %d", num)
		}
		blk, err := types.DecodeBlock(enc)
		if err != nil {
			return nil, fmt.Errorf("chain: corrupt block record %d: %w", num, err)
		}
		if blk.Number() != num {
			return nil, fmt.Errorf("chain: block record %d holds number %d", num, blk.Number())
		}
		if haveWant && blk.Hash() != want {
			// A stale pre-reorg record: the canonical chain above it no
			// longer references it. Treat it like missing history.
			break
		}
		blocks = append(blocks, blk)
		if num == 0 {
			break
		}
		want = blk.Header.ParentHash
		haveWant = true
		num--
	}
	// Reverse into ascending order.
	for i, j := 0, len(blocks)-1; i < j; i, j = i+1, j-1 {
		blocks[i], blocks[j] = blocks[j], blocks[i]
	}

	root := blocks[len(blocks)-1].Header.StateRoot
	return newChain(cfg, blocks, statedb.OpenAt(kv, root)), nil
}
