package sim

// Shape overrides a sweep's population and network geometry — the
// -peers/-clients/-topology knobs of serethsim. Zero fields leave the
// scenario's own configuration untouched.
type Shape struct {
	SemanticMiners int
	BaselineMiners int
	Clients        int
	Topology       string
	Degree         int
	// ParallelExec routes block execution through the optimistic
	// parallel processor (serethsim -parallel). η is bit-identical
	// either way; the flag exists to exercise the parallel path across
	// every sweep.
	ParallelExec bool
	// RPCClients publishes client peers behind real HTTP JSON-RPC
	// endpoints (serethsim -rpc-clients). η is bit-identical either
	// way; the flag exists to exercise the serving tier across sweeps.
	RPCClients bool
	// Persist backs every node's chain with an in-memory store
	// (serethsim -persist), flushing state and blocks write-through at
	// each adoption. η is bit-identical either way.
	Persist bool
}

// Apply returns cfg with the non-zero shape fields overridden.
func (sh Shape) Apply(cfg ScenarioConfig) ScenarioConfig {
	override(&cfg.SemanticMiners, sh.SemanticMiners)
	override(&cfg.BaselineMiners, sh.BaselineMiners)
	override(&cfg.Clients, sh.Clients)
	override(&cfg.Topology, sh.Topology)
	override(&cfg.Degree, sh.Degree)
	override(&cfg.ParallelExec, sh.ParallelExec)
	override(&cfg.RPCClients, sh.RPCClients)
	override(&cfg.Persist, sh.Persist)
	return cfg
}

func override[T comparable](dst *T, v T) {
	var zero T
	if v != zero {
		*dst = v
	}
}

// SequentialHistoryConfig is the §V single-sender check configuration:
// with one address, real-time order = nonce order = block order, so η
// must be exactly 1. A plain geth client suffices — no remote views are
// needed when the sender knows its own history.
func SequentialHistoryConfig(seed int64) ScenarioConfig {
	cfg := Defaults()
	cfg.Name = "sequential_history"
	cfg.Seed = seed
	cfg.Sets = 20
	cfg.SingleSender = true
	return cfg
}

// DefaultSeeds returns n deterministic experiment seeds.
func DefaultSeeds(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i+1) * 101
	}
	return seeds
}
