package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"sereth/internal/scenarios"
)

// TestRowsMatchCommittedBench pins the registry-driven serethbench to
// the last BENCH file the hand-written row builders produced: exactly
// the same row names (minus the two rows whose code path is gone, plus
// the block-assembly, shared-storage, account-copy and view-read rows
// added since), and
// bit-identical η, honest-twin η and η drop on every simulated row.
// The micro-benchmark rows are checked by name only — running them is
// the bench smoke's job.
func TestRowsMatchCommittedBench(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_2026-08-07.json")
	if err != nil {
		t.Fatal(err)
	}
	// The committed file predates Record = name + metrics: flat
	// fields, zero values omitted, has_eta marking the η rows.
	var committed struct {
		Records []struct {
			Name      string  `json:"name"`
			HasEta    bool    `json:"has_eta"`
			Eta       float64 `json:"eta"`
			HonestEta float64 `json:"honest_eta"`
			EtaDrop   float64 `json:"eta_drop"`
		} `json:"records"`
	}
	if err := json.Unmarshal(data, &committed); err != nil {
		t.Fatal(err)
	}
	deleted := []string{"scale/figure2-sereth/peers-50-mesh-lazy", "keccak/elision-replay-100tx-off"}
	added := []string{
		"txpool/snapshot-after-admit-10k", "miner/order-live-pool10k", "miner/order-scratch-pool10k",
		"miner/build-50-of-pool10k", "txpool/settle-50-of-10k",
		"statedb/copy-20k-slots", "replay/kv-250tx-on-20k-slots",
		"statedb/copy-250-accounts", "node/view-amv",
	}

	sims, err := simRecords()
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]map[string]float64)
	for _, r := range sims {
		got[r.Name] = r.Metrics
	}
	for _, b := range scenarios.Benches() {
		if _, dup := got[b.Name]; dup {
			t.Errorf("row %q defined twice", b.Name)
		}
		got[b.Name] = nil
		if alias, ok := scenarios.BenchAliases[b.Name]; ok {
			got[alias] = nil
		}
	}

	want := len(added)
	for _, name := range added {
		if _, ok := got[name]; !ok {
			t.Errorf("row %q is gone", name)
		}
	}
	for _, c := range committed.Records {
		if slices.Contains(deleted, c.Name) {
			continue
		}
		want++
		m, ok := got[c.Name]
		if !ok {
			t.Errorf("row %q is gone", c.Name)
			continue
		}
		if !c.HasEta {
			continue
		}
		if m == nil {
			t.Errorf("%s: η row became a micro-benchmark", c.Name)
			continue
		}
		if m["eta"] != c.Eta || m["honest_eta"] != c.HonestEta || m["eta_drop"] != c.EtaDrop {
			t.Errorf("%s: η %v honest %v drop %v, committed %v / %v / %v",
				c.Name, m["eta"], m["honest_eta"], m["eta_drop"], c.Eta, c.HonestEta, c.EtaDrop)
		}
	}
	if len(got) != want {
		t.Errorf("%d rows, committed file has %d (after the two deletions and the %d additions)", len(got), want, len(added))
	}
}
