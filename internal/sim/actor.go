package sim

import (
	"encoding/binary"

	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// Faults configures the fault families of a run. Each member is one
// family's plan and a nil member leaves the family out, so the zero value
// is the honest run: bit-identical to a harness with no fault layer.
type Faults struct {
	Churn     *ChurnPlan
	Partition *PartitionPlan
	// Links applies one fault policy to every directed link.
	Links  *p2p.LinkPolicy
	Crash  *CrashPlan
	Censor *CensorPlan
	Attack *AttackPlan
}

// actor is one fault family's part in a run. It owns its plan, its state
// and its section of the Result, and reaches the peers only through
// the population: never another actor. The population calls every actor's
// hooks at fixed points and never asks which family it holds.
type actor interface {
	// configure adjusts peer idx's node configuration before it is built.
	configure(idx int, cfg *node.Config) error
	// start runs once the population is built and joined.
	start()
	// events returns the actor's timeline events; the submission window
	// is [buyStart, buyStart+span).
	events(buyStart, span uint64) []event
	// observe runs after every timeline event and once after the drain.
	observe(at uint64)
	// settled reports whether the actor has nothing outstanding, so the
	// drain phase may stop.
	settled() bool
	// report fills the actor's section of res; an error is a broken
	// invariant of the family.
	report(res *Result) error
	// close releases what the actor holds. It is idempotent.
	close()
}

// passive does nothing at any hook but report: each family embeds it and
// overrides the hooks it needs.
type passive struct{}

func (passive) configure(int, *node.Config) error { return nil }
func (passive) start()                            {}
func (passive) events(uint64, uint64) []event     { return nil }
func (passive) observe(uint64)                    {}
func (passive) settled() bool                     { return true }
func (passive) close()                            {}

// cast builds the configured families' actors. Their order is the order
// every hook runs in: the crash family keeps the node config the censor
// has already adjusted, and same-instant events tie churn, crash,
// partition, attack.
func (s *Population) cast(reg *wallet.Registry, netCfg *p2p.Config) error {
	f := s.cfg.Faults
	if f.Links != nil {
		// All link-fault randomness comes from a namespaced sub-seed, so
		// the layer never perturbs the base delivery stream.
		netCfg.Faults = &p2p.FaultConfig{Seed: subSeed(s.cfg.Seed, "p2p-faults"), Default: *f.Links}
		s.actors = append(s.actors, &links{s: s})
	}
	if f.Censor != nil {
		s.actors = append(s.actors, newCensor(s, *f.Censor))
	}
	if f.Churn != nil {
		s.actors = append(s.actors, &churn{catchUp: catchUp{s: s}, plan: *f.Churn})
	}
	if f.Crash != nil {
		c, err := newCrasher(s, *f.Crash)
		if err != nil {
			return err
		}
		s.actors = append(s.actors, c)
	}
	if f.Partition != nil {
		s.actors = append(s.actors, &partition{s: s, plan: *f.Partition})
	}
	if f.Attack != nil {
		a, err := newAttack(s, *f.Attack, reg)
		if err != nil {
			return err
		}
		s.actors = append(s.actors, a)
	}
	return nil
}

// subSeed derives a namespaced sub-seed from the scenario seed. Every
// randomness source a fault family introduces (link faults, churn and
// crash times, the crash set) draws from its own stream keyed this way,
// so fault randomness never perturbs the pre-existing streams.
func subSeed(seed int64, namespace string) int64 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h := types.Keccak([]byte("sereth-subseed:"+namespace), b[:])
	return int64(binary.BigEndian.Uint64(h[:8]))
}

// catchUp follows peers back from an outage: each is watched until it
// reaches the height the online population held when it came back, and
// the model time that took is recorded.
type catchUp struct {
	passive
	s       *Population
	pending []watch
	done    []float64 // completed catch-up latencies (ms)
}

type watch struct {
	idx    int
	since  uint64
	target uint64
}

// back starts watching peer idx, which came back online at at.
func (c *catchUp) back(at uint64, idx int) {
	target := uint64(0)
	for _, m := range c.s.nodes {
		if c.s.offline[m.ID()] > 0 {
			continue
		}
		if h := m.Chain().Height(); h > target {
			target = h
		}
	}
	if c.s.nodes[idx].Chain().Height() >= target {
		c.done = append(c.done, 0)
		return
	}
	c.pending = append(c.pending, watch{idx: idx, since: at, target: target})
}

// observe resolves the watches whose peer has caught up.
func (c *catchUp) observe(at uint64) {
	if len(c.pending) == 0 {
		return
	}
	remaining := c.pending[:0]
	for _, w := range c.pending {
		if c.s.nodes[w.idx].Chain().Height() >= w.target {
			c.done = append(c.done, float64(at-w.since))
			continue
		}
		remaining = append(remaining, w)
	}
	c.pending = remaining
}

func (c *catchUp) settled() bool { return len(c.pending) == 0 }
