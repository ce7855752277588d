package scenarios

import (
	"testing"

	"sereth/internal/sim"
)

// compareRuns demands the parallel-execution run be observationally
// identical to the sequential one: block execution is the only thing
// the flag changes, and it is pinned bit-identical, so every derived
// measurement — inclusion and success counts, η, block/message totals —
// must match exactly (not approximately).
func compareRuns(t *testing.T, name string, seq, par sim.Result) {
	t.Helper()
	if seq.Efficiency() != par.Efficiency() || seq.SetEfficiency() != par.SetEfficiency() {
		t.Errorf("%s: η divergence: sequential %.6f/%.6f, parallel %.6f/%.6f",
			name, seq.Efficiency(), seq.SetEfficiency(), par.Efficiency(), par.SetEfficiency())
	}
	if seq.BuysIncluded != par.BuysIncluded || seq.BuysSucceeded != par.BuysSucceeded ||
		seq.SetsIncluded != par.SetsIncluded || seq.SetsSucceeded != par.SetsSucceeded {
		t.Errorf("%s: inclusion divergence: sequential %d/%d buys %d/%d sets, parallel %d/%d buys %d/%d sets",
			name, seq.BuysIncluded, seq.BuysSucceeded, seq.SetsIncluded, seq.SetsSucceeded,
			par.BuysIncluded, par.BuysSucceeded, par.SetsIncluded, par.SetsSucceeded)
	}
	if seq.Blocks != par.Blocks || seq.MsgsSent != par.MsgsSent {
		t.Errorf("%s: chain/network divergence: sequential %d blocks %d msgs, parallel %d blocks %d msgs",
			name, seq.Blocks, seq.MsgsSent, par.Blocks, par.MsgsSent)
	}
}

// TestParallelExecGoldenScenarios runs EVERY golden η scenario twice at
// the benchmark seed — sequential and parallel execution — and demands
// identical results. This is the scenario half of the differential
// suite; the conflict-dense fuzz half lives in internal/chain.
func TestParallelExecGoldenScenarios(t *testing.T) {
	for _, e := range EtaTable() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			seqRes, err := sim.Run(e.Make(EtaSeed))
			if err != nil {
				t.Fatal(err)
			}
			cfg := e.Make(EtaSeed)
			cfg.ParallelExec = true
			parRes, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, e.Name, seqRes, parRes)
		})
	}
}

// TestParallelExecChaosHonestTwin covers the chaos family: η under
// faults AND the honest twin must be unchanged by parallel execution.
func TestParallelExecChaosHonestTwin(t *testing.T) {
	compareChaosTwins(t, "parallel", chaosTwinRows(t, sim.Shape{}), chaosTwinRows(t, sim.Shape{ParallelExec: true}))
}
