package scenarios

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"sereth/internal/chain"
	"sereth/internal/sim"
	"sereth/internal/types"
)

// TestEtaMatchesGolden pins η, the honest twin's η and the η drop of
// every simulated row to testdata/eta.golden, bit for bit: the 22
// EtaTable and 3 ScaleTable rows at EtaSeed, and the chaos and crash
// variants over sim.DefaultSeeds(2) against their honest twins. The
// golden holds the values BENCH_2026-08-07.json recorded, so a row that
// moves has moved from that historical number, and a row added to or
// removed from a table fails the count.
func TestEtaMatchesGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/eta.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want [][]string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, strings.Fields(line))
		}
	}

	tables := Experiment{Name: "eta", Columns: []Column{{Name: "eta", Of: sim.Result.Efficiency}}}
	for _, e := range append(EtaTable(), ScaleTable()...) {
		tables.Points = append(tables.Points, Point{Label: e.Name, Make: e.Make})
	}
	var got []Row
	for _, sweep := range []struct {
		exp   Experiment
		seeds []int64
	}{
		{tables, []int64{EtaSeed}},
		{Chaos(), sim.DefaultSeeds(2)},
		{Crash(), sim.DefaultSeeds(2)},
	} {
		rows, err := sweep.exp.Run(Options{Seeds: sweep.seeds})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rows...)
	}

	if len(got) != len(want) {
		t.Errorf("%d rows ran, the golden has %d", len(got), len(want))
	}
	for i, r := range got[:min(len(got), len(want))] {
		w := want[i]
		if len(w) != 4 || w[0] != r.Label {
			t.Errorf("row %d is %q, the golden's is %q", i, r.Label, w)
			continue
		}
		for j, col := range []string{"eta", "honest_eta", "eta_drop"} {
			v, err := strconv.ParseFloat(w[j+1], 64)
			if err != nil {
				t.Fatalf("%s: %v", r.Label, err)
			}
			if r.Values[col] != v {
				t.Errorf("%s: %s = %s, golden %s", r.Label, col, strconv.FormatFloat(r.Values[col], 'g', -1, 64), w[j+1])
			}
		}
	}
}

func TestEtaTableShape(t *testing.T) {
	table := EtaTable()
	if len(table) != 22 {
		t.Fatalf("η table has %d scenarios, want 22", len(table))
	}
	seen := map[string]bool{}
	for _, e := range table {
		if seen[e.Name] {
			t.Errorf("duplicate scenario %q", e.Name)
		}
		seen[e.Name] = true
		cfg := e.Make(EtaSeed)
		if cfg.Buys <= 0 {
			t.Errorf("%s: empty workload", e.Name)
		}
	}
	for _, want := range []string{
		"figure2/geth/sets-100", "sequential-history",
		"ablation/extendheads/extended", "ablation/gossip/latency-15000ms",
	} {
		if !seen[want] {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestScaleTablePopulations(t *testing.T) {
	for _, e := range ScaleTable() {
		cfg := e.Make(EtaSeed)
		if cfg.SemanticMiners+cfg.BaselineMiners+cfg.Clients != 50 {
			t.Errorf("%s: population %d+%d+%d != 50",
				e.Name, cfg.SemanticMiners, cfg.BaselineMiners, cfg.Clients)
		}
	}
}

func TestChainPoolFixture(t *testing.T) {
	pool, tracker, tail := ChainPool(100)
	if pool.Len() != 100 {
		t.Fatalf("pool len %d", pool.Len())
	}
	view, ok := tracker.View()
	if !ok || view.Depth != 100 {
		t.Fatalf("view depth %d ok=%v", view.Depth, ok)
	}
	pool.Remove([]types.Hash{tail.Hash()})
	if view, _ := tracker.View(); view.Depth != 99 {
		t.Fatalf("churn depth %d", view.Depth)
	}
}

func TestStateFixtureDeterministic(t *testing.T) {
	a, addrs := StateFixture(200)
	b, _ := StateFixture(200)
	if len(addrs) != 200 {
		t.Fatalf("addrs = %d", len(addrs))
	}
	if a.Root() != b.Root() {
		t.Error("state fixture not deterministic")
	}
	if a.GetNonce(addrs[3]) == 0 {
		t.Error("fixture EOAs not populated")
	}
}

func TestReplayFixtureValidates(t *testing.T) {
	f := NewReplayFixture(20)
	c := f.NewChain(nil)
	receipts, err := c.InsertBlock(f.Block)
	if err != nil {
		t.Fatalf("fixture block rejected: %v", err)
	}
	if len(receipts) != 20 {
		t.Fatalf("receipts = %d", len(receipts))
	}
	for i, r := range receipts {
		if r.Status != types.StatusSucceeded {
			t.Errorf("fixture tx %d failed", i)
		}
	}
}

// TestParallelReaderFastPath pins the nonce-only merge fast path
// against the sequential oracle on the reader-extended conflict-sparse
// fixture: results stay bit-identical and the ParallelStats counter
// proves every reader took the fast path.
func TestParallelReaderFastPath(t *testing.T) {
	const writers, readers = 48, 24
	f := NewParallelFixtureWithReaders(writers, readers)
	if len(f.Txs) != writers+readers {
		t.Fatalf("fixture has %d txs", len(f.Txs))
	}

	seq, err := f.NewProcessor(0).Process(f.Genesis.Copy(), f.Header, f.Txs)
	if err != nil {
		t.Fatal(err)
	}
	parP := f.NewProcessor(4).(*chain.ParallelProcessor)
	par, err := parP.Process(f.Genesis.Copy(), f.Header, f.Txs)
	if err != nil {
		t.Fatal(err)
	}
	if seq.StateRoot != par.StateRoot || seq.ReceiptRoot != par.ReceiptRoot || seq.GasUsed != par.GasUsed {
		t.Fatal("parallel run with readers diverges from sequential oracle")
	}
	for i, r := range seq.Receipts {
		if r.Status != par.Receipts[i].Status {
			t.Fatalf("receipt %d status diverges", i)
		}
	}

	stats := parP.Stats()
	if stats.NonceOnlyMerges != readers {
		t.Fatalf("NonceOnlyMerges = %d, want %d", stats.NonceOnlyMerges, readers)
	}
	if stats.Merged != uint64(writers+readers) {
		t.Fatalf("Merged = %d (reruns %d) on the conflict-free fixture", stats.Merged, stats.Reruns)
	}
}
