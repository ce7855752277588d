// This file wires chain persistence and snapshot fast-bootstrap into
// node construction. A node picks its chain source in priority order:
//
//  1. a datadir that already holds a head — recovered in place, no
//     replay (Config.Genesis is ignored; the datadir is authoritative);
//  2. a snapshot: a store a serving peer exported its head into, which
//     is a datadir like any other and boots through the same
//     chain.Open — except that it is somebody else's, so its complete
//     head state is verified before anything is adopted, the verified
//     records are copied into the node's own store when it has one,
//     and a snapshot that fails verification leaves that store
//     untouched and the node falls back to
//  3. plain genesis — from which ordinary block sync (HandleBlock's
//     catch-up requests) converges the node with the network.
package node

import (
	"sereth/internal/chain"
	"sereth/internal/store"
)

// BootSource reports where a node's chain came from.
type BootSource int

// Chain bootstrap sources.
const (
	// BootGenesis is a fresh chain from Config.Genesis.
	BootGenesis BootSource = iota
	// BootRecovered is a chain recovered from Config.Store's datadir.
	BootRecovered
	// BootSnapshot is a chain imported from Config.Bootstrap.
	BootSnapshot
	// BootSnapshotFailed means Config.Bootstrap was rejected (no head, or
	// a head state with a missing or altered record) and the node fell
	// back to genesis + block sync.
	BootSnapshotFailed
)

func (b BootSource) String() string {
	switch b {
	case BootRecovered:
		return "recovered"
	case BootSnapshot:
		return "snapshot"
	case BootSnapshotFailed:
		return "snapshot-failed"
	}
	return "genesis"
}

// buildChain selects and constructs the node's chain per the priority
// order above. The returned error is fatal only for a corrupt datadir —
// a node that silently abandoned its persisted history would double-act
// on the network.
func buildChain(cfg Config) (*chain.Chain, BootSource, error) {
	if cfg.Store != nil {
		cfg.Chain.Store = cfg.Store
		if chain.HasHead(cfg.Store) {
			c, err := chain.Open(cfg.Chain, cfg.Store)
			if err != nil {
				return nil, BootGenesis, err
			}
			return c, BootRecovered, nil
		}
	}
	if cfg.Bootstrap != nil {
		c, err := chain.Open(cfg.Chain, cfg.Bootstrap)
		if err == nil {
			return c, BootSnapshot, nil
		}
		return chain.New(cfg.Chain, cfg.Genesis), BootSnapshotFailed, nil
	}
	return chain.New(cfg.Chain, cfg.Genesis), BootGenesis, nil
}

// BootSource reports how this node's chain was constructed.
func (n *Node) BootSource() BootSource { return n.boot }

// Store returns the node's backing store (nil without persistence).
func (n *Node) Store() store.Store { return n.store }

// Close flushes and closes the node's backing store (Sync, then
// Close), making every adopted block durable. It is idempotent and
// safe on storeless nodes; the node must not adopt blocks afterwards.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		if n.store == nil {
			return
		}
		if sy, ok := n.store.(store.Syncer); ok {
			if err := sy.Sync(); err != nil {
				n.closeErr = err
				_ = n.store.Close()
				return
			}
		}
		n.closeErr = n.store.Close()
	})
	return n.closeErr
}
