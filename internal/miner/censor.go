package miner

import "sereth/internal/types"

// Censor is an adversarial ordering wrapper: it silently excludes every
// pending transaction from a targeted sender before delegating to the
// wrapped strategy. This models the censoring-miner attack — the miner
// produces otherwise-valid blocks, so no peer can reject them; the
// damage is measured as inclusion delay/denial for the targeted senders
// (the sim's sim.CensorResult section).
type Censor struct {
	inner    Strategy
	targets  map[types.Address]struct{}
	excluded uint64
}

var _ Strategy = (*Censor)(nil)

// NewCensor wraps a strategy to exclude the targeted sender addresses.
func NewCensor(inner Strategy, targets []types.Address) *Censor {
	set := make(map[types.Address]struct{}, len(targets))
	for _, a := range targets {
		set[a] = struct{}{}
	}
	return &Censor{inner: inner, targets: set}
}

// Pull implements Strategy: exclusions are made and counted per call, not per pull.
func (c *Censor) Pull(pending []*types.Transaction, nextNonce func(types.Address) uint64) Cursor {
	kept := make([]*types.Transaction, 0, len(pending))
	for _, tx := range pending {
		if _, hit := c.targets[tx.From]; hit {
			c.excluded++
			continue
		}
		kept = append(kept, tx)
	}
	return c.inner.Pull(kept, nextNonce)
}

// Order is Pull collected into a slice.
func (c *Censor) Order(pending []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
	return collect(c.Pull(pending, nextNonce), len(pending))
}

// Excluded returns the number of censorship exclusion events (one per
// targeted pending transaction per block build).
func (c *Censor) Excluded() uint64 { return c.excluded }
