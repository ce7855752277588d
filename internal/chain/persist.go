// This file implements chain persistence, restart recovery and the
// snapshot a joining peer boots from — one serialised form, one boot
// path. With a Config.Store attached, every adopted block commits its
// post state's dirty trie paths, its RLP body and a head pointer into
// the flat store; Open rebuilds a chain from those records WITHOUT
// replaying a single transaction — blocks decode straight from the log
// and head state reopens lazily from its root. Export writes the same
// records for the head alone into another store, so a snapshot IS a
// datadir, and a joiner adopts it through the Open a restart uses.
//
// Store layout (alongside the raw 32-byte trie-node and 'c'-prefixed
// code records written through statedb.CommitTo):
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

// persistLocked writes one adopted block to the store: the post state's
// new trie nodes and code first (their own batch), then the block body
// and head pointer, head last — so a torn tail after a crash always
// drops the head record before the data it points at. post may be nil
// when the state was already committed by a later block in the same
// reorg batch.
func (c *Chain) persistLocked(block *types.Block, post *statedb.StateDB) error {
	if post != nil {
		root, _, err := post.CommitTo(c.cfg.Store)
		if err != nil {
			return err
		}
		if root != block.Header.StateRoot {
			// Defensive: the block was validated against this exact state.
			return fmt.Errorf("%w: committed %s, header %s", ErrBadStateRoot, root.Hex(), block.Header.StateRoot.Hex())
		}
	}
	if err := writeHead(c.cfg.Store, &c.headBatch, block); err != nil {
		return err
	}
	if n := c.cfg.SyncEvery; n > 0 && block.Number()%uint64(n) == 0 {
		if sy, ok := c.cfg.Store.(store.Syncer); ok {
			return sy.Sync()
		}
	}
	return nil
}

// writeHead appends block's body and the head pointer naming it to kv
// through b, which it resets first.
func writeHead(kv store.Store, b *store.Batch, block *types.Block) error {
	b.Reset()
	b.Put(blockKey(block.Number()), block.EncodeRLP())
	var num [8]byte
	binary.BigEndian.PutUint64(num[:], block.Number())
	b.Put(headKey, num[:])
	return kv.Write(b)
}

// exportChunk is how much of an export is staged before it is written.
const exportChunk = 4 << 20

// Export writes the current head into dst as the records a store holds
// for it: every trie node and code blob reachable from the head's state
// root (statedb.Walk — not the nodes earlier blocks superseded), then
// the head block and the head pointer, head last. dst then IS a datadir
// whose chain is that one block: Open recovers it, a node restarts on
// it, and a joiner handed it as a snapshot adopts it after verifying it.
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
	err := state.Walk(func(key, value []byte) {
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
		err = dst.Write(&b)
	}
	if err == nil {
		err = writeHead(dst, &b, head)
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
//   - retains only the head post state, so ImportFork can reorg only at
//     the head (deeper attach points report ErrUnknownParent and the
//     node falls back to block sync);
//   - has no receipts for historical blocks.
//
// kv is what the chain reads; cfg.Store, as always, is what it writes.
//
// When they are the same store this is a restart, and the store is
// trusted unless it reports dirty salvage (a torn tail or quarantined
// corruption repaired on reopen). Then Open does not believe the head
// record: it verifies the head block's complete state (account trie,
// storage tries, code blobs) and, if the newest records did not survive
// intact, walks the head backwards to the deepest block whose state
// verifies — the last truly durable commit — then repoints the head
// record there. A store that salvaged cleanly skips the (O(state size))
// verification entirely.
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
		return openAt(cfg, kv, head)
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
