package scenarios

import (
	"strings"
	"testing"

	"sereth/internal/sim"
)

// sweep runs ad-hoc points through the registry's runner with the η
// columns.
func sweep(t *testing.T, seeds []int64, pts ...Point) []Row {
	t.Helper()
	rows, err := Experiment{Name: t.Name(), Points: pts, Columns: etaColumns()}.Run(Options{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(pts) {
		t.Fatalf("rows = %d, want %d", len(rows), len(pts))
	}
	return rows
}

func TestRunFigure2SmokeAndFormat(t *testing.T) {
	rows, err := Figure2(10).Run(Options{Seeds: []int64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("points = %d", len(rows))
	}
	table := FormatSweep(rows)
	for _, want := range []string{"geth_unmodified", "sereth_client", "semantic_mining", "eta_mean"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

func TestParticipationMonotoneEnds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	rows := sweep(t, sim.DefaultSeeds(3), participationPoint(0), participationPoint(1))
	if none, full := rows[0].Values["eta"], rows[1].Values["eta"]; full <= none {
		t.Errorf("full participation (%.3f) not better than none (%.3f)", full, none)
	}
}

func TestGossipDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	rows := sweep(t, sim.DefaultSeeds(3), gossipPoint(100), gossipPoint(8000))
	// Heavily impeded TxPool propagation must not improve efficiency.
	if fast, slow := rows[0].Values["eta"], rows[1].Values["eta"]; slow > fast+0.05 {
		t.Errorf("8s gossip (%.3f) beat 100ms gossip (%.3f)", slow, fast)
	}
}

func TestExtendHeadsRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	rows := sweep(t, sim.DefaultSeeds(3), extendHeadsPoint(false), extendHeadsPoint(true))
	if rows[0].Make(1).ExtendHeads || !rows[1].Make(1).ExtendHeads {
		t.Fatal("point order wrong")
	}
	if base, ext := rows[0].Values["eta"], rows[1].Values["eta"]; ext < base-0.05 {
		t.Errorf("extension (%.3f) notably worse than baseline (%.3f)", ext, base)
	}
}

// TestRunOverloadSweep smoke-tests the experiment aggregation.
func TestRunOverloadSweep(t *testing.T) {
	var overload Experiment
	for _, e := range Experiments() {
		if e.Name == "overload" {
			overload = e
		}
	}
	label := overloadPoint(500).Label
	rows, err := overload.Run(Options{Seeds: []int64{1, 2}, Only: []string{label}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Label != label {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0].Values["evictions"] <= 0 {
		t.Error("sweep recorded no evictions")
	}
}

// TestParallelSweepMatchesSequential verifies the worker-pool sweep is
// numerically identical to running the seeds one by one.
func TestParallelSweepMatchesSequential(t *testing.T) {
	seeds := sim.DefaultSeeds(4)
	rows, err := Figure2(10).Run(Options{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range Figure2Lines {
		if rows[i].Scenario != line.Name {
			t.Fatalf("row %d is %s, want %s", i, rows[i].Scenario, line.Name)
		}
		var sum float64
		for _, seed := range seeds {
			res, err := sim.Run(line.Make(10, seed))
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Efficiency()
		}
		if mean := sum / float64(len(seeds)); mean != rows[i].Values["eta"] {
			t.Errorf("%s: parallel mean %v != sequential %v", line.Name, rows[i].Values["eta"], mean)
		}
	}
}

// TestCrashMultiSweep exercises the multi-kill and sync-every-block
// variants across a few seeds via the registry runner, honest twins
// included (the crash actor fails a run whose recoveries fall short of
// its crashes).
func TestCrashMultiSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is a long test")
	}
	rows, err := Crash().Run(Options{Seeds: []int64{101, 202}, Only: []string{"crash_multi", "crash_sync1"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Values["crashes"] == 0 {
			t.Fatalf("%s: no crashes happened", r.Label)
		}
		if r.Values["converged"] != 1 {
			t.Fatalf("%s: not converged", r.Label)
		}
	}
}

// chaosTwinRows runs the three quick chaos variants at one seed under
// the given shape.
func chaosTwinRows(t *testing.T, shape sim.Shape) []Row {
	t.Helper()
	rows, err := Chaos().Run(Options{Seeds: sim.DefaultSeeds(1), Quick: true, Shape: shape})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// compareChaosTwins demands that a mode flag moves neither η under
// faults, nor the honest twin's η, nor the robustness columns.
func compareChaosTwins(t *testing.T, mode string, base, other []Row) {
	t.Helper()
	if len(base) != 3 || len(base) != len(other) {
		t.Fatalf("point count divergence: %d vs %d", len(base), len(other))
	}
	for i := range base {
		s, p := base[i].Values, other[i].Values
		for _, col := range []string{"eta", "honest_eta", "orphaned", "converged"} {
			if s[col] != p[col] {
				t.Errorf("%s: %s divergence: %v, %s %v", base[i].Label, col, s[col], mode, p[col])
			}
		}
	}
}
