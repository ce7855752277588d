package miner

import (
	"maps"

	"sereth/internal/types"
)

// Censor is an adversarial ordering wrapper: it silently excludes every
// pending transaction from a targeted sender, ordering what is left as
// the wrapped strategy orders it. This models the censoring-miner attack
// — the miner produces otherwise-valid blocks, so no peer can reject
// them; the damage is measured as inclusion delay/denial for the
// targeted senders (the sim's sim.CensorResult section). The wrapped
// strategy is handed the snapshot and the senders to leave out, not a
// copy of the snapshot without them: a semantic one still reads the
// prefix off the live dag.
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
	return c.pull(pending, exclusion{}, nextNonce)
}

// pull leaves out the targets' transactions beside what ex leaves out,
// counting those ex does not.
func (c *Censor) pull(pending []*types.Transaction, ex exclusion, nextNonce func(types.Address) uint64) Cursor {
	senders := c.targets
	if len(ex.senders) > 0 { // a censor around a censor
		senders = maps.Clone(ex.senders)
		maps.Copy(senders, c.targets)
	}
	n := 0
	for _, tx := range pending {
		if _, out := senders[tx.From]; out {
			n++
			if _, before := ex.senders[tx.From]; !before {
				c.excluded++
			}
		}
	}
	return c.inner.pull(pending, exclusion{senders: senders, n: n}, nextNonce)
}

func (c *Censor) release() { c.inner.release() }

// Order is Pull collected into a slice.
func (c *Censor) Order(pending []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
	return order(c, pending, nextNonce)
}

// Excluded returns the number of censorship exclusion events (one per
// targeted pending transaction per block build).
func (c *Censor) Excluded() uint64 { return c.excluded }
