package sim

// Shape overrides a sweep's population and network geometry — the
// -peers/-clients/-topology/-degree knobs of serethsim and the rows of
// the scale table. Each non-zero field overrides the ScenarioConfig
// field of the same name; zero fields leave the scenario's own
// configuration untouched.
type Shape struct {
	SemanticMiners int
	BaselineMiners int
	Clients        int
	Topology       string
	Degree         int
}

// Apply returns cfg with the non-zero shape fields overridden.
func (sh Shape) Apply(cfg ScenarioConfig) ScenarioConfig {
	override(&cfg.SemanticMiners, sh.SemanticMiners)
	override(&cfg.BaselineMiners, sh.BaselineMiners)
	override(&cfg.Clients, sh.Clients)
	override(&cfg.Topology, sh.Topology)
	override(&cfg.Degree, sh.Degree)
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
