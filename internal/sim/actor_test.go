package sim

import (
	"reflect"
	"testing"

	"sereth/internal/p2p"
)

// planned and reported list which fault families a plan names and which
// sections a result carries, in one order, so the two compare directly.
func planned(f Faults) [6]bool {
	return [6]bool{f.Churn != nil, f.Partition != nil, f.Links != nil, f.Crash != nil, f.Censor != nil, f.Attack != nil}
}

func reported(r Result) [6]bool {
	return [6]bool{r.Churn != nil, r.Partition != nil, r.Links != nil, r.Crash != nil, r.Censor != nil, r.Attack != nil}
}

// TestSectionsFollowPlans runs every chaos and crash variant and its
// honest twin: a run carries a result section for exactly the families
// its plan names, and the twin, with the faults zeroed, carries none.
func TestSectionsFollowPlans(t *testing.T) {
	for _, mk := range []func(int64) ScenarioConfig{
		ChaosChurn, ChaosPartition, ChaosLoss, ChaosCensor, ChaosForger, ChaosFrontrun, ChaosCombined,
		CrashSingle, CrashPartitioned,
	} {
		cfg := fastChaos(mk(3))
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if got, want := reported(res), planned(cfg.Faults); got != want || want == [6]bool{} {
			t.Errorf("%s: sections %v, plans %v", cfg.Name, got, want)
		}
		cfg.Faults = Faults{}
		twin, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s twin: %v", cfg.Name, err)
		}
		if got := reported(twin); got != [6]bool{} {
			t.Errorf("%s twin: sections %v in an honest run", cfg.Name, got)
		}
	}
}

// TestFamiliesCompose runs every fault family in one population: churn,
// a partition, lossy links, a crash, a censoring miner and a
// front-runner. The population has one expendable peer, so churn and the
// crash take the same peer down, the crash's outage inside churn's: the
// node its restart rebuilds must stay off the network, receiving
// nothing, until churn brings it back too. Each family must show itself
// engaged in its own section, every killed peer must come back, the
// population must converge, and a second run at the seed must reproduce
// the result, every section included.
func TestFamiliesCompose(t *testing.T) {
	cfg := fast(Crash(41))
	cfg.Name = "every_family"
	cfg.SemanticMiners, cfg.BaselineMiners, cfg.Clients = 1, 1, 2
	cfg.Faults = Faults{
		Churn:     &ChurnPlan{Peers: 1, DownMs: 90_000},
		Partition: &PartitionPlan{AtMs: 20_000, ForMs: 20_000},
		Links:     &p2p.LinkPolicy{DropRate: 0.05, JitterMs: 100},
		Crash:     &CrashPlan{Peers: 1, DownMs: 20_000},
		Censor:    &CensorPlan{Miners: 1},
		Attack:    &AttackPlan{Kind: AdversaryFrontrun, IntervalMs: 4000},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.cleanup()
	outages := map[string][]event{}
	for _, a := range s.actors {
		switch a := a.(type) {
		case *churn:
			outages["churn"] = a.events(cfg.BlockIntervalMs, uint64(cfg.Buys)*cfg.SubmitIntervalMs)
		case *crasher:
			outages["crash"] = a.events(cfg.BlockIntervalMs, uint64(cfg.Buys)*cfg.SubmitIntervalMs)
		}
	}
	ch, cr := outages["churn"], outages["crash"]
	if len(cfg.expendable()) != 1 || len(ch) != 2 || len(cr) != 2 {
		t.Fatalf("fixture: %d expendable peers, %d churn and %d crash events", len(cfg.expendable()), len(ch), len(cr))
	}
	if ch[0].at >= cr[1].at || cr[0].at >= ch[1].at {
		t.Fatalf("fixture: outages do not overlap: churn %d..%d, crash %d..%d", ch[0].at, ch[1].at, cr[0].at, cr[1].at)
	}
	// Nothing reaches the peer while either family holds it down.
	peer := s.nodes[cfg.expendable()[0]].ID()
	from, until := min(ch[0].at, cr[0].at), max(ch[1].at, cr[1].at)
	reached := 0
	s.net.Trace(func(e p2p.TraceEvent) {
		if e.To == peer && e.At > from && e.At < until {
			reached++
		}
	})
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if reached != 0 {
		t.Errorf("%d deliveries reached peer %d inside its outages (%d..%d ms)", reached, peer, from, until)
	}
	if c := res.Churn; c.Rejoins != 1 || c.Incomplete != 0 {
		t.Errorf("churn: %+v", *c)
	}
	if c := res.Crash; c.Crashes != 1 || c.Recoveries != 1 || c.Incomplete != 0 {
		t.Errorf("crash: %+v", *c)
	}
	if res.Partition.Blocked == 0 || res.Links.Dropped == 0 {
		t.Errorf("network faults idle: partition %+v, links %+v", *res.Partition, *res.Links)
	}
	if res.Censor.Excluded == 0 || res.Attack.TxsSent == 0 {
		t.Errorf("adversaries idle: censor %+v, attack %+v", *res.Censor, *res.Attack)
	}
	if !res.Converged || res.BuysIncluded == 0 {
		t.Errorf("converged=%v with %d buys included", res.Converged, res.BuysIncluded)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Errorf("same seed, different results:\n%+v\n%+v", res, again)
	}
}
