// This file implements chain snapshots: a streamed export of the head
// block plus the full world state at its root, so a joining peer can
// bootstrap to the current head in one transfer instead of syncing and
// replaying every historical block. The import side re-derives the
// state root from the streamed accounts and refuses adoption unless it
// matches the header — a corrupt or malicious snapshot cannot install
// arbitrary state under a trusted header.

package chain

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sereth/internal/statedb"
	"sereth/internal/types"
)

// snapMagic heads every snapshot stream.
var snapMagic = []byte("SSNAP1\n")

// ErrNotSnapshot marks a stream that does not start with the snapshot
// magic.
var ErrNotSnapshot = errors.New("chain: not a snapshot stream")

// WriteSnapshot streams the current head block and its complete post
// state to w:
//
//	"SSNAP1\n" || uvarint(len) || head block RLP || statedb snapshot stream
//
// Only a chain whose head state is fully materialized can serve
// snapshots; a chain recovered from a store (whose state is a lazy
// overlay) reports statedb.ErrPartialState.
func (c *Chain) WriteSnapshot(w io.Writer) error {
	c.mu.RLock()
	head := c.blocks[len(c.blocks)-1]
	state := c.state
	c.mu.RUnlock()

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapMagic); err != nil {
		return err
	}
	blockEnc := head.EncodeRLP()
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(blockEnc)))
	if _, err := bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := bw.Write(blockEnc); err != nil {
		return err
	}
	// Export from a copy: WriteSnapshot flushes, and the live head state
	// must not observe mutation from a serving goroutine.
	if err := state.Copy().WriteSnapshot(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// OpenSnapshot builds a chain from a WriteSnapshot stream. The imported
// state's root is recomputed account by account and verified against
// the snapshot header's StateRoot before adoption; on mismatch the
// snapshot is rejected with ErrBadStateRoot and nothing is kept.
//
// The resulting chain holds exactly one block — the snapshot head — and
// its base is that block's number: history below the head is not
// transferred, so deep reorgs fall back to block sync just as on a
// store-recovered chain. If cfg.Store is set the head block and state
// are persisted immediately, making the bootstrap durable.
func OpenSnapshot(cfg Config, r io.Reader) (*Chain, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil || !bytes.Equal(magic, snapMagic) {
		return nil, ErrNotSnapshot
	}
	blockLen, err := binary.ReadUvarint(br)
	if err != nil || blockLen == 0 || blockLen > 1<<26 {
		return nil, fmt.Errorf("chain: snapshot block length: %v", err)
	}
	blockEnc := make([]byte, blockLen)
	if _, err := io.ReadFull(br, blockEnc); err != nil {
		return nil, fmt.Errorf("chain: snapshot block body: %w", err)
	}
	head, err := types.DecodeBlock(blockEnc)
	if err != nil {
		return nil, fmt.Errorf("chain: snapshot block: %w", err)
	}
	state, err := statedb.ReadSnapshot(br)
	if err != nil {
		return nil, err
	}
	if root := state.Root(); root != head.Header.StateRoot {
		return nil, fmt.Errorf("%w: snapshot state %s, header %s",
			ErrBadStateRoot, root.Hex(), head.Header.StateRoot.Hex())
	}

	c := &Chain{
		cfg:      cfg,
		proc:     NewProcessor(cfg),
		base:     head.Number(),
		blocks:   []*types.Block{head},
		byHash:   map[types.Hash]*types.Block{head.Hash(): head},
		receipts: map[types.Hash][]*types.Receipt{},
		state:    state,
		posts:    map[types.Hash]*statedb.StateDB{head.Hash(): state},
	}
	if cfg.Parallel {
		c.par = NewParallelProcessor(cfg)
	}
	if cfg.Store != nil {
		if err := c.persistLocked(head, state); err != nil {
			return nil, fmt.Errorf("chain: persisting snapshot: %w", err)
		}
	}
	return c, nil
}
