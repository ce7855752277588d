package sim

import (
	"encoding/binary"

	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/types"
)

// subSeed derives a namespaced sub-seed from the scenario seed. Every
// new randomness source the fault layer introduces (link faults, churn
// times, adversary choices) draws from its own stream keyed this way, so
// fault randomness never perturbs the pre-existing streams — with all
// faults disabled, the golden-seed scenarios stay bit-identical.
func subSeed(seed int64, namespace string) int64 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h := types.Keccak([]byte("sereth-subseed:"+namespace), b[:])
	return int64(binary.BigEndian.Uint64(h[:8]))
}

// Adversary selectors for FaultPlan.Adversary.
const (
	// AdversaryCensor makes the first CensorMiners miners exclude every
	// transaction from the first CensorTargets buyer accounts.
	AdversaryCensor = "censor"
	// AdversaryForger joins an attacker peer that gossips tampered
	// replays, unknown-signer mark-collision buys, and forged blocks —
	// all of which honest peers must reject at admission and import.
	AdversaryForger = "forger"
	// AdversaryFrontrun joins an attacker peer that captures gossiped
	// offers and replays stale ones from its own funded identity at a
	// gas-price premium (the §V-B lost-update attack as a live actor).
	AdversaryFrontrun = "frontrun"
)

// FaultPlan configures the scenario-level fault schedule. The zero value
// disables the fault layer entirely (the bit-identical honest path).
type FaultPlan struct {
	// ChurnPeers peers (never the first miner of each kind or the
	// primary client) leave the network at a seeded random instant in
	// the submission window and rejoin ChurnDownMs later, resyncing via
	// the frontier catch-up.
	ChurnPeers  int
	ChurnDownMs uint64 // outage length; 0 = two block intervals

	// PartitionForMs > 0 cuts the network into two groups (peers
	// alternating by index) at PartitionAtMs (0 = a quarter into the
	// submission window) and heals PartitionForMs later. Both groups
	// keep mining, so the heal exercises longest-chain reorg
	// convergence.
	PartitionAtMs  uint64
	PartitionForMs uint64

	// Per-link fault knobs, applied to every link (p2p.LinkPolicy).
	LinkLossRate       float64
	LinkJitterMs       uint64
	LinkDupRate        float64
	LinkReorderRate    float64
	LinkReorderDelayMs uint64
	LinkExtraLatencyMs uint64

	// CrashPeers peers (drawn from the churn-eligible set) are backed by
	// fault-injected file stores and hard-killed at a seeded random
	// instant in the submission window: their unsynced log tail is cut at
	// a random byte and the handle abandoned without sync — a process
	// kill mid-commit. CrashDownMs later the peer restarts from its
	// datadir: the log salvages, chain.Open lands on a durable verified
	// head, and the peer resyncs the rest over gossip.
	CrashPeers  int
	CrashDownMs uint64 // outage length; 0 = two block intervals
	// CrashSyncEvery is the crashing peers' store-sync cadence in blocks
	// (chain.Config.SyncEvery); 0 = every 2 blocks.
	CrashSyncEvery int

	// Adversary selects an attacker ("", censor, forger, frontrun).
	Adversary string
	// CensorMiners is how many miners censor (0 = all); CensorTargets is
	// how many buyer accounts they target (0 = a quarter, at least one).
	CensorMiners  int
	CensorTargets int
	// AttackIntervalMs paces forger/frontrunner attack events
	// (0 = 2000ms).
	AttackIntervalMs uint64
}

// Enabled reports whether any fault is configured.
func (f FaultPlan) Enabled() bool { return f != FaultPlan{} }

// linkPolicy converts the plan's link knobs into the p2p form.
func (f FaultPlan) linkPolicy() p2p.LinkPolicy {
	return p2p.LinkPolicy{
		ExtraLatencyMs: f.LinkExtraLatencyMs,
		JitterMs:       f.LinkJitterMs,
		DropRate:       f.LinkLossRate,
		DuplicateRate:  f.LinkDupRate,
		ReorderRate:    f.LinkReorderRate,
		ReorderDelayMs: f.LinkReorderDelayMs,
	}
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

// chaosVariant is the chaos base configuration under one fault plan.
func chaosVariant(seed int64, name string, plan FaultPlan) ScenarioConfig {
	cfg := Chaos(seed)
	cfg.Name = name
	cfg.Faults = plan
	return cfg
}

// ChaosChurn: two peers crash mid-run and rejoin after ~2 block
// intervals, measuring resync latency via the frontier catch-up.
func ChaosChurn(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_churn", FaultPlan{ChurnPeers: 2, ChurnDownMs: 30_000})
}

// ChaosPartition: the network splits into two mining halves for three
// block intervals, then heals and must reorg-converge.
func ChaosPartition(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_partition", FaultPlan{PartitionAtMs: 40_000, PartitionForMs: 45_000})
}

// ChaosLoss: every link drops 10% of gossip, jitters deliveries, and
// occasionally duplicates or reorders them.
func ChaosLoss(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_loss", FaultPlan{
		LinkLossRate:       0.10,
		LinkJitterMs:       200,
		LinkDupRate:        0.02,
		LinkReorderRate:    0.05,
		LinkReorderDelayMs: 500,
	})
}

// ChaosCensor: every miner excludes the targeted buyer accounts.
func ChaosCensor(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_censor", FaultPlan{Adversary: AdversaryCensor})
}

// ChaosForger: an attacker peer gossips tampered replays, unknown-signer
// mark collisions, and forged blocks.
func ChaosForger(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_forger", FaultPlan{Adversary: AdversaryForger, AttackIntervalMs: 3000})
}

// ChaosFrontrun: an attacker peer replays captured stale offers at a
// gas-price premium.
func ChaosFrontrun(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_frontrun", FaultPlan{Adversary: AdversaryFrontrun, AttackIntervalMs: 4000})
}

// ChaosCombined: churn, a partition, and lossy links at once.
func ChaosCombined(seed int64) ScenarioConfig {
	return chaosVariant(seed, "chaos_combined", FaultPlan{
		ChurnPeers:     1,
		ChurnDownMs:    30_000,
		PartitionAtMs:  50_000,
		PartitionForMs: 30_000,
		LinkLossRate:   0.05,
		LinkJitterMs:   100,
	})
}
