package sim

import (
	"sync"
	"testing"

	"sereth/internal/p2p"
)

// fastChaos shrinks a chaos variant to the 40-buy test workload and
// rescales its fault schedule into the shorter submission window
// (buys span [15s, 55s] at the default intervals).
func fastChaos(cfg ScenarioConfig) ScenarioConfig {
	cfg = fast(cfg)
	if c := cfg.Faults.Churn; c != nil {
		cfg.Faults.Churn = &ChurnPlan{Peers: c.Peers, DownMs: 20_000}
	}
	if cfg.Faults.Partition != nil {
		cfg.Faults.Partition = &PartitionPlan{AtMs: 20_000, ForMs: 25_000}
	}
	return cfg
}

func TestPartitionHealConverges(t *testing.T) {
	res, err := Run(fastChaos(ChaosPartition(7)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Partition.Blocked == 0 {
		t.Error("partition blocked no deliveries: the cut never took effect")
	}
	if !res.Converged {
		t.Fatal("population did not reconverge after the heal")
	}
	if res.BlocksMined < res.Blocks {
		t.Errorf("accounting: %d mined < %d canonical", res.BlocksMined, res.Blocks)
	}
	if res.BlocksOrphaned != res.BlocksMined-res.Blocks {
		t.Errorf("orphan accounting: %d != %d-%d", res.BlocksOrphaned, res.BlocksMined, res.Blocks)
	}
}

func TestChurnRejoinCatchUp(t *testing.T) {
	res, err := Run(fastChaos(ChaosChurn(11)))
	if err != nil {
		t.Fatal(err)
	}
	churn := res.Churn
	if churn.Rejoins != 2 {
		t.Fatalf("rejoins = %d, want 2", churn.Rejoins)
	}
	if len(churn.ResyncMs) != 2 || churn.Incomplete != 0 {
		t.Fatalf("resyncs: %d recorded, %d incomplete (want 2, 0); latencies %v",
			len(churn.ResyncMs), churn.Incomplete, churn.ResyncMs)
	}
	if !res.Converged {
		t.Fatal("rejoined peers did not catch back up to the population head")
	}
}

func TestCensoringMinerDegradesEta(t *testing.T) {
	cfg := fastChaos(ChaosCensor(13))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	honestCfg := cfg
	honestCfg.Faults = Faults{}
	honest, err := Run(honestCfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := res.Censor; c.Excluded == 0 || c.Submitted == 0 {
		t.Fatalf("censorship never engaged: %d exclusions, %d targeted buys", c.Excluded, c.Submitted)
	}
	// Every miner censors, so targeted buys must never land.
	if res.Censor.Included != 0 {
		t.Errorf("%d targeted buys slipped past an all-censoring miner set", res.Censor.Included)
	}
	if res.BuysIncluded >= honest.BuysIncluded {
		t.Errorf("censorship did not reduce inclusion: %d included vs honest %d",
			res.BuysIncluded, honest.BuysIncluded)
	}
	if res.StateTps() >= honest.StateTps() {
		t.Errorf("state throughput did not degrade: %.3f vs honest %.3f",
			res.StateTps(), honest.StateTps())
	}
}

func TestForgerRejectedEverywhere(t *testing.T) {
	cfg := fastChaos(ChaosForger(17))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Attack
	if a.TxsSent == 0 || a.BlocksSent == 0 {
		t.Fatalf("forger idle: %d txs, %d blocks sent", a.TxsSent, a.BlocksSent)
	}
	if a.TxsIncluded != 0 {
		t.Errorf("%d forged txs entered the canonical chain", a.TxsIncluded)
	}
	if a.BlocksAccepted != 0 {
		t.Errorf("%d forged blocks entered the canonical chain", a.BlocksAccepted)
	}
	// The forger emits only rejected traffic and the chaos link policy is
	// clean, so the honest workload's outcome must be untouched — bit-for-
	// bit the same η as the faults-disabled twin at the same seed.
	honestCfg := cfg
	honestCfg.Faults = Faults{}
	honest, err := Run(honestCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Efficiency() != honest.Efficiency() || res.BuysIncluded != honest.BuysIncluded {
		t.Errorf("rejected forgeries perturbed the honest outcome: η %.4f/%d vs %.4f/%d",
			res.Efficiency(), res.BuysIncluded, honest.Efficiency(), honest.BuysIncluded)
	}
}

func TestFrontrunnerReplaysDefused(t *testing.T) {
	res, err := Run(fastChaos(ChaosFrontrun(19)))
	if err != nil {
		t.Fatal(err)
	}
	a := res.Attack
	if a.TxsSent == 0 {
		t.Fatal("frontrunner never replayed an offer")
	}
	// Replays are validly signed by a registered key at a gas premium, so
	// they DO get included; the RAA binding is what must defuse the stale
	// ones at execution.
	if a.TxsIncluded == 0 {
		t.Error("no replay was included despite the gas premium")
	}
	if a.TxsSucceeded > a.TxsIncluded {
		t.Errorf("attack accounting: %d succeeded > %d included", a.TxsSucceeded, a.TxsIncluded)
	}
	if res.SetEfficiency() != 1 {
		t.Errorf("replays broke the owner's set chain: set η %.3f", res.SetEfficiency())
	}
	if !res.Converged {
		t.Error("population did not converge under replay attack")
	}
}

func TestChaosLossCompletes(t *testing.T) {
	res, err := Run(fastChaos(ChaosLoss(23)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Links.Dropped == 0 {
		t.Error("lossy links dropped nothing")
	}
	if res.BuysIncluded == 0 {
		t.Error("no buys survived the lossy network")
	}
}

// TestChaosTraceDeterministic is the seed-plumbing audit: the heaviest
// chaos variant (churn + partition + lossy links) must replay the exact
// same delivery trace from the same seed.
func TestChaosTraceDeterministic(t *testing.T) {
	run := func() ([]p2p.TraceEvent, Result) {
		s, err := New(fastChaos(ChaosCombined(29)))
		if err != nil {
			t.Fatal(err)
		}
		var trace []p2p.TraceEvent
		s.net.Trace(func(e p2p.TraceEvent) { trace = append(trace, e) })
		res, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return trace, res
	}
	ta, ra := run()
	tb, rb := run()
	if ra.Efficiency() != rb.Efficiency() || ra.BlocksOrphaned != rb.BlocksOrphaned ||
		*ra.Links != *rb.Links || *ra.Partition != *rb.Partition {
		t.Fatalf("chaos results differ across identical runs:\n%+v\n%+v", ra, rb)
	}
	if len(ta) == 0 || len(ta) != len(tb) {
		t.Fatalf("trace lengths %d vs %d", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, ta[i], tb[i])
		}
	}
}

// TestChaosConcurrent runs three chaos variants in parallel; under
// `go test -race` it checks the fault layer for data races between the
// per-scenario populations.
func TestChaosConcurrent(t *testing.T) {
	variants := []func(int64) ScenarioConfig{ChaosChurn, ChaosPartition, ChaosLoss}
	var wg sync.WaitGroup
	for i, mk := range variants {
		wg.Add(1)
		go func(seed int64, mk func(int64) ScenarioConfig) {
			defer wg.Done()
			if _, err := Run(fastChaos(mk(seed))); err != nil {
				t.Error(err)
			}
		}(int64(31+i), mk)
	}
	wg.Wait()
}
