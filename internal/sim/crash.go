package sim

// Crash returns the base configuration of the crash-consistency family:
// the chaos population (both miner kinds active, spare peers to kill)
// with every node persisting, so a hard kill has real on-disk state to
// corrupt and a real datadir to come back from.
func Crash(seed int64) ScenarioConfig { return crashVariant(seed, "crash", FaultPlan{}) }

// crashVariant is the crash base configuration under one fault plan.
func crashVariant(seed int64, name string, plan FaultPlan) ScenarioConfig {
	cfg := chaosVariant(seed, name, plan)
	cfg.Persist = true
	return cfg
}

// CrashSingle: one persisting peer is killed mid-commit (unsynced log
// tail cut at a random byte) and restarts from its salvaged datadir.
func CrashSingle(seed int64) ScenarioConfig {
	return crashVariant(seed, "crash_single", FaultPlan{CrashPeers: 1, CrashDownMs: 30_000})
}

// CrashMulti: two peers crash independently at seeded random instants.
func CrashMulti(seed int64) ScenarioConfig {
	return crashVariant(seed, "crash_multi", FaultPlan{CrashPeers: 2, CrashDownMs: 30_000})
}

// CrashSyncEveryBlock: one crash against a store synced after every
// block — the recovered head should sit at (or next to) the kill point,
// minimizing the gossip catch-up.
func CrashSyncEveryBlock(seed int64) ScenarioConfig {
	return crashVariant(seed, "crash_sync1", FaultPlan{CrashPeers: 1, CrashDownMs: 30_000, CrashSyncEvery: 1})
}

// CrashPartitioned: a crash landing inside a network partition — the
// restarted peer salvages its log and then has to converge through the
// post-heal reorg as well.
func CrashPartitioned(seed int64) ScenarioConfig {
	return crashVariant(seed, "crash_partitioned", FaultPlan{
		CrashPeers:     1,
		CrashDownMs:    30_000,
		PartitionAtMs:  40_000,
		PartitionForMs: 45_000,
	})
}
