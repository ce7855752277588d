package sim

import (
	"fmt"
	"math/rand"
	"os"
	"slices"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/node"
	"sereth/internal/statedb"
	"sereth/internal/store"
)

// CrashPlan hard-kills Peers persisting peers (drawn from the
// churn-eligible set, backed by fault-injected file stores) at a seeded
// random instant in the submission window: the unsynced log tail is cut
// at a random byte and the handle abandoned without sync — a process
// kill mid-commit. DownMs later the peer restarts from its datadir: the
// log salvages, chain.Open lands on a durable verified head, and the peer
// resyncs the rest over gossip.
type CrashPlan struct {
	Peers  int
	DownMs uint64 // outage length; 0 = two block intervals
	// SyncEvery is the crashing peers' store-sync cadence in blocks
	// (chain.Config.SyncEvery); 0 = every 2 blocks.
	SyncEvery int
}

// CrashResult is the crash family's section of a Result: hard kills,
// completed restarts, restarts that recovered a durable head from disk
// (the rest fell back to genesis because the kill predated any durable
// write), per-restart recovery latency (salvage + gossip catch-up),
// restarted peers that never caught up, and the salvage totals across
// every restart.
type CrashResult struct {
	Crashes            int
	Recoveries         int
	RecoveredBoots     int
	RecoveryMs         []float64
	Incomplete         int
	SalvageTornBytes   uint64
	SalvageQuarantined uint64
	SalvageCorrected   uint64
}

// crasher is the crash family. Its peers are chosen before the
// population is built, so they run on fault-injected file stores from
// genesis on.
type crasher struct {
	catchUp
	plan  CrashPlan
	idxs  []int
	peers map[int]*crashPeer
	res   CrashResult
}

// crashPeer is what a crashing peer is rebuilt from: its datadir, its
// live store handle and its node config.
type crashPeer struct {
	dir   string
	store *store.FaultStore
	cfg   node.Config
}

// newCrasher draws the crashing peers from the same expendable set as
// churn.
func newCrasher(s *scenario, plan CrashPlan) (*crasher, error) {
	if s.cfg.RPCClients {
		return nil, fmt.Errorf("sim: a crash plan is incompatible with RPCClients (the frontend would serve dead nodes)")
	}
	eligible := s.cfg.expendable()
	rng := rand.New(rand.NewSource(subSeed(s.cfg.Seed, "crash")))
	rng.Shuffle(len(eligible), func(i, j int) { eligible[i], eligible[j] = eligible[j], eligible[i] })
	c := &crasher{catchUp: catchUp{s: s}, plan: plan, idxs: eligible[:min(plan.Peers, len(eligible))], peers: make(map[int]*crashPeer)}
	slices.Sort(c.idxs)
	return c, nil
}

func (c *crasher) configure(idx int, cfg *node.Config) error {
	if !slices.Contains(c.idxs, idx) {
		return nil
	}
	dir, err := os.MkdirTemp("", "sereth-crash-")
	if err != nil {
		return err
	}
	p := &crashPeer{dir: dir}
	c.peers[idx] = p
	kv, err := store.OpenFile(dir)
	if err != nil {
		return err
	}
	cfg.Store = c.faulty(idx, p, kv)
	cfg.Chain.SyncEvery = c.plan.SyncEvery
	if cfg.Chain.SyncEvery <= 0 {
		cfg.Chain.SyncEvery = 2
	}
	// A crashing peer must own everything it persists. The
	// population-shared exec cache and genesis state hand it statedbs
	// whose dirty trie nodes were already committed into the FIRST
	// committer's store — write-through adoption of those would leave
	// holes in this peer's own datadir, unrecoverable after a kill. A
	// private cache (every block re-executed locally) and a private
	// genesis instance (same root, fresh dirty flags) keep its log
	// complete; execution is deterministic, so this changes only CPU
	// time, never η.
	c.private(cfg)
	p.cfg = *cfg // its store is swapped at restart
	return nil
}

// faulty wraps peer idx's file store in the policy it runs under: no
// active write faults, but a Crash drops the unsynced log tail at a
// seeded random byte — a kill mid-commit.
func (c *crasher) faulty(idx int, p *crashPeer, kv store.Store) *store.FaultStore {
	p.store = store.NewFault(kv, &store.FaultPolicy{
		Seed:                subSeed(c.s.cfg.Seed, fmt.Sprintf("crash-store-%d", idx)),
		DropUnsyncedOnCrash: true,
	})
	return p.store
}

// private gives a crashing peer its own exec cache and genesis instance
// (bit-identical root, its own dirty-node tracking, so its store receives
// the full genesis commit).
func (c *crasher) private(cfg *node.Config) {
	cfg.Chain.ExecCache = chain.NewExecCache(0)
	g := statedb.New()
	g.SetCode(c.s.contract, asm.SerethContract())
	cfg.Genesis = g
}

// events draws the kill instants from the family's own namespaced stream.
func (c *crasher) events(buyStart, span uint64) []event {
	rng := rand.New(rand.NewSource(subSeed(c.s.cfg.Seed, "crash-times")))
	down := c.plan.DownMs
	if down == 0 {
		down = 2 * c.s.cfg.BlockIntervalMs
	}
	var evs []event
	for _, idx := range c.idxs {
		at := buyStart + uint64(rng.Int63n(int64(span)))
		evs = append(evs, c.outage(idx, at, at+down)...)
	}
	return evs
}

// outage kills peer idx at at and restarts it at back.
func (c *crasher) outage(idx int, at, back uint64) []event {
	return []event{
		{at: at, fire: func(uint64) error { c.kill(idx); return nil }},
		{at: back, fire: func(at uint64) error { return c.restart(at, idx) }},
	}
}

// kill takes the peer off the network like a churned peer, then its
// store loses the unsynced log tail and abandons the file handle without
// sync — the write that was in flight when the process died.
func (c *crasher) kill(idx int) {
	c.s.down(idx)
	c.peers[idx].store.Crash()
	c.res.Crashes++
}

// restart brings a crashed peer back from its datadir: the log is
// salvaged on open, the node rebuilds from the durable head (or genesis
// when the kill predated any durable head), rejoins the network, and a
// watch measures how long it takes to catch back up. Salvage or recovery
// failures abort the run — they are exactly the crash-consistency
// invariant this family exists to check.
func (c *crasher) restart(at uint64, idx int) error {
	p := c.peers[idx]
	kv, err := store.OpenFile(p.dir)
	if err != nil {
		return fmt.Errorf("sim: crash restart %d: salvage failed: %w", idx, err)
	}
	rep := kv.Salvage()
	c.res.SalvageTornBytes += uint64(rep.TornBytes)
	c.res.SalvageQuarantined += uint64(rep.Quarantined)
	c.res.SalvageCorrected += uint64(rep.Corrected)
	cfg := p.cfg
	cfg.Store = c.faulty(idx, p, kv)
	// Both per restart: the exec cache must not replay pre-crash post
	// states whose dirty nodes went to the dead handle, and the genesis
	// fallback (a kill before any durable head) must commit in full.
	c.private(&cfg)
	n, err := node.New(cfg)
	if err != nil {
		return fmt.Errorf("sim: crash restart %d: reopen failed: %w", idx, err)
	}
	if n.BootSource() == node.BootRecovered {
		c.res.RecoveredBoots++
	}
	c.s.nodes[idx] = n
	c.s.up(idx)
	c.res.Recoveries++
	c.back(at, idx)
	return nil
}

// report fails the run unless every killed peer came back.
func (c *crasher) report(res *Result) error {
	c.res.RecoveryMs, c.res.Incomplete = c.done, len(c.pending)
	res.Crash = &c.res
	if c.res.Recoveries < c.res.Crashes {
		return fmt.Errorf("sim: %d crashes but only %d recoveries", c.res.Crashes, c.res.Recoveries)
	}
	return nil
}

func (c *crasher) close() {
	for _, p := range c.peers {
		if p.store != nil {
			_ = p.store.Close()
		}
		_ = os.RemoveAll(p.dir)
	}
	c.peers = nil
}

// Crash returns the base configuration of the crash-consistency family:
// the chaos population (both miner kinds active, spare peers to kill)
// with every node persisting, so a hard kill has real on-disk state to
// corrupt and a real datadir to come back from.
func Crash(seed int64) ScenarioConfig { return crashVariant(seed, "crash", Faults{}) }

// crashVariant is the crash base configuration under the given faults.
func crashVariant(seed int64, name string, faults Faults) ScenarioConfig {
	cfg := chaosVariant(seed, name, faults)
	cfg.Persist = true
	return cfg
}

// CrashSingle: one persisting peer is killed mid-commit (unsynced log
// tail cut at a random byte) and restarts from its salvaged datadir.
func CrashSingle(seed int64) ScenarioConfig {
	return crashVariant(seed, "crash_single", Faults{Crash: &CrashPlan{Peers: 1, DownMs: 30_000}})
}

// CrashMulti: two peers crash independently at seeded random instants.
func CrashMulti(seed int64) ScenarioConfig {
	return crashVariant(seed, "crash_multi", Faults{Crash: &CrashPlan{Peers: 2, DownMs: 30_000}})
}

// CrashSyncEveryBlock: one crash against a store synced after every
// block — the recovered head should sit at (or next to) the kill point,
// minimizing the gossip catch-up.
func CrashSyncEveryBlock(seed int64) ScenarioConfig {
	return crashVariant(seed, "crash_sync1", Faults{Crash: &CrashPlan{Peers: 1, DownMs: 30_000, SyncEvery: 1}})
}

// CrashPartitioned: a crash landing inside a network partition — the
// restarted peer salvages its log and then has to converge through the
// post-heal reorg as well.
func CrashPartitioned(seed int64) ScenarioConfig {
	return crashVariant(seed, "crash_partitioned", Faults{
		Crash:     &CrashPlan{Peers: 1, DownMs: 30_000},
		Partition: &PartitionPlan{AtMs: 40_000, ForMs: 45_000},
	})
}
