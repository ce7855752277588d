package sim

import (
	"math/rand"

	"sereth/internal/node"
	"sereth/internal/p2p"
)

// ChurnPlan takes Peers peers (never the first miner of each kind or the
// primary client) off the network at a seeded random instant in the
// submission window and brings them back DownMs later; each resyncs
// through the frontier catch-up.
type ChurnPlan struct {
	Peers  int
	DownMs uint64 // outage length; 0 = two block intervals
}

// ChurnResult is the churn family's section of a Result. ResyncMs holds,
// per rejoin, the model time until the peer caught up to the online
// population's height at its rejoin; Incomplete counts rejoined peers
// that never caught up.
type ChurnResult struct {
	Rejoins    int
	ResyncMs   []float64
	Incomplete int
}

type churn struct {
	catchUp
	plan    ChurnPlan
	rejoins int
}

// events draws the outages from the family's own namespaced stream, so
// the schedule is reproducible and independent of every other stream.
func (c *churn) events(buyStart, span uint64) []event {
	rng := rand.New(rand.NewSource(subSeed(c.s.cfg.Seed, "churn")))
	eligible := c.s.cfg.expendable()
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	down := c.plan.DownMs
	if down == 0 {
		down = 2 * c.s.cfg.BlockIntervalMs
	}
	var evs []event
	for _, idx := range eligible[:min(c.plan.Peers, len(eligible))] {
		at := buyStart + uint64(rng.Int63n(int64(span)))
		evs = append(evs,
			event{at: at, fire: func(uint64) error { c.s.down(idx); return nil }},
			event{at: at + down, fire: func(at uint64) error { c.join(at, idx); return nil }})
	}
	return evs
}

// join brings a churned peer back. Its sync bookkeeping is reset (the
// peers it had asked before going down may be gone or stale).
func (c *churn) join(at uint64, idx int) {
	c.s.nodes[idx].ResetSyncState()
	c.s.up(idx)
	c.rejoins++
	c.back(at, idx)
}

func (c *churn) report(res *Result) error {
	res.Churn = &ChurnResult{Rejoins: c.rejoins, ResyncMs: c.done, Incomplete: len(c.pending)}
	return nil
}

// PartitionPlan cuts the network into two groups (peers alternating by
// index, so each side keeps a miner of each kind) at AtMs (0 = a quarter
// into the submission window) and heals it ForMs later. Both groups keep
// mining, so the heal exercises longest-chain reorg convergence.
type PartitionPlan struct {
	AtMs  uint64
	ForMs uint64
}

// PartitionResult is the partition family's section of a Result: the
// deliveries the cut suppressed.
type PartitionResult struct {
	Blocked uint64
}

type partition struct {
	passive
	s    *Population
	plan PartitionPlan
}

func (p *partition) events(buyStart, span uint64) []event {
	at := p.plan.AtMs
	if at == 0 {
		at = buyStart + span/4
	}
	heal := func(uint64) error { p.s.net.ClearPartition(); return nil }
	return []event{{at: at, fire: p.cut}, {at: at + p.plan.ForMs, fire: heal}}
}

// cut splits the nodes by index parity; peers that are not nodes (an
// attacker) ride with group 0.
func (p *partition) cut(uint64) error {
	var groups [2][]p2p.PeerID
	for i, n := range p.s.nodes {
		groups[i%2] = append(groups[i%2], n.ID())
	}
	groups[0] = append(groups[0], p.s.extras...)
	p.s.net.SetPartition(groups[:])
	return nil
}

func (p *partition) report(res *Result) error {
	res.Partition = &PartitionResult{Blocked: p.s.net.FaultStats().PartitionBlocked}
	return nil
}

// LinkResult is the lossy-links family's section of a Result: the
// deliveries the link policy dropped, duplicated and reordered.
type LinkResult struct {
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
}

// links is the lossy-links family. The policy itself is the network's
// (cast installs it); the actor reports what it did.
type links struct {
	passive
	s *Population
}

func (l *links) report(res *Result) error {
	fs := l.s.net.FaultStats()
	res.Links = &LinkResult{Dropped: fs.LinkDropped, Duplicated: fs.Duplicated, Reordered: fs.Reordered}
	return nil
}

// Chaos returns the base configuration of the chaos family: the
// sereth_client workload on a 7-peer mixed population with both miner
// kinds active, leaving room for churn and two-sided partitions.
// Variants toggle individual faults on top.
func Chaos(seed int64) ScenarioConfig {
	cfg := Defaults()
	cfg.Name = "chaos"
	cfg.Seed = seed
	cfg.Sets = 20
	cfg.ClientMode = node.ModeSereth
	cfg.SemanticMiners = 2
	cfg.BaselineMiners = 2
	cfg.Clients = 3
	cfg.SemanticFraction = 0.5
	cfg.DrainBlocks = 60
	return cfg
}

// chaosVariant is the chaos base configuration under the given faults.
func chaosVariant(seed int64, name string, faults Faults) ScenarioConfig {
	cfg := Chaos(seed)
	cfg.Name = name
	cfg.Faults = faults
	return cfg
}

// ChaosChurn: two peers crash mid-run and rejoin after ~2 block
// intervals, measuring resync latency via the frontier catch-up.
func ChaosChurn(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_churn", Faults{Churn: &ChurnPlan{Peers: 2, DownMs: 30_000}})
}

// ChaosPartition: the network splits into two mining halves for three
// block intervals, then heals and must reorg-converge.
func ChaosPartition(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_partition", Faults{Partition: &PartitionPlan{AtMs: 40_000, ForMs: 45_000}})
}

// ChaosLoss: every link drops 10% of gossip, jitters deliveries, and
// occasionally duplicates or reorders them.
func ChaosLoss(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_loss", Faults{Links: &p2p.LinkPolicy{
		DropRate:       0.10,
		JitterMs:       200,
		DuplicateRate:  0.02,
		ReorderRate:    0.05,
		ReorderDelayMs: 500,
	}})
}

// ChaosCensor: every miner excludes the targeted buyer accounts.
func ChaosCensor(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_censor", Faults{Censor: &CensorPlan{}})
}

// ChaosForger: an attacker peer gossips tampered replays, unknown-signer
// mark collisions, and forged blocks.
func ChaosForger(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_forger", Faults{Attack: &AttackPlan{Kind: AdversaryForger, IntervalMs: 3000}})
}

// ChaosFrontrun: an attacker peer replays captured stale offers at a
// gas-price premium.
func ChaosFrontrun(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_frontrun", Faults{Attack: &AttackPlan{Kind: AdversaryFrontrun, IntervalMs: 4000}})
}

// ChaosCombined: churn, a partition, and lossy links at once.
func ChaosCombined(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_combined", Faults{
		Churn:     &ChurnPlan{Peers: 1, DownMs: 30_000},
		Partition: &PartitionPlan{AtMs: 50_000, ForMs: 30_000},
		Links:     &p2p.LinkPolicy{DropRate: 0.05, JitterMs: 100},
	})
}
