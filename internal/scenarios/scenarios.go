// Package scenarios is the one place experiments are defined: the
// experiment registry (experiments.go), the §V-B demonstration
// (frontrunning.go) and the η tables they share with the nested bench
// module (this file). cmd/serethsim is a loop over the registry; the
// package's tests pin every η row to testdata/eta.golden, and its
// benchmarks are the micro-benchmarks of the layers below.
package scenarios

import (
	"fmt"
	"strings"

	"sereth/internal/sim"
	"sereth/internal/types"
)

// EtaSeed is the fixed seed of the η table rows in testdata/eta.golden.
const EtaSeed = 101

// Eta is one named η scenario of the η tables.
type Eta struct {
	Name string
	Make func(seed int64) sim.ScenarioConfig
}

// EtaTable returns the full η scenario table: the nine Figure-2 cells,
// the sequential-history check and the four §V-C/§V-A ablation sweeps —
// the 22 scenarios whose η values must stay bit-identical across pure
// performance work. The ablation cells are the registry's own points
// (experiments.go) at the table's parameter values.
func EtaTable() []Eta {
	var out []Eta
	add := func(name string, mk func(seed int64) sim.ScenarioConfig) {
		out = append(out, Eta{Name: name, Make: mk})
	}
	for _, line := range Figure2Lines {
		short, _, _ := strings.Cut(line.Name, "_")
		for _, sets := range []int{100, 20, 5} {
			add(fmt.Sprintf("figure2/%s/sets-%d", short, sets),
				func(seed int64) sim.ScenarioConfig { return line.Make(sets, seed) })
		}
	}
	add("sequential-history", func(int64) sim.ScenarioConfig { return sim.SequentialHistoryConfig(1) })
	for _, fraction := range []float64{0, 0.5, 1} {
		add(fmt.Sprintf("ablation/participation/fraction-%d", int(fraction*100)), participationPoint(fraction).Make)
	}
	for _, latency := range []uint64{50, 1000, 5000, 15000} {
		add(fmt.Sprintf("ablation/gossip/latency-%dms", latency), gossipPoint(latency).Make)
	}
	for _, interval := range []uint64{500, 1000, 2000} {
		add(fmt.Sprintf("ablation/interval/interval-%dms", interval), intervalPoint(interval).Make)
	}
	add("ablation/extendheads/baseline", extendHeadsPoint(false).Make)
	add("ablation/extendheads/extended", extendHeadsPoint(true).Make)
	return out
}

// ScaleTable returns the population-scale η rows of the network
// engine: a 50-peer full-mesh figure2 cell plus sparse-topology
// variants at the same population.
func ScaleTable() []Eta {
	var out []Eta
	for _, sc := range []struct {
		name  string
		shape sim.Shape
	}{
		{"scale/figure2-sereth/peers-50-mesh", sim.Shape{SemanticMiners: 24, BaselineMiners: 24, Clients: 2}},
		{"scale/figure2-sereth/peers-50-ring", sim.Shape{SemanticMiners: 24, BaselineMiners: 24, Clients: 2, Topology: "ring"}},
		{"scale/figure2-sereth/peers-50-dregular6", sim.Shape{SemanticMiners: 24, BaselineMiners: 24, Clients: 2, Topology: "dregular", Degree: 6}},
	} {
		out = append(out, Eta{
			Name: sc.name,
			Make: func(seed int64) sim.ScenarioConfig { return sc.shape.Apply(sim.SerethClient(20, seed)) },
		})
	}
	return out
}

// BenchContract is the conventional Sereth contract address of the
// demonstrations and the package's fixtures.
var BenchContract = types.Address{19: 0xcc}
