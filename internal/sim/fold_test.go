package sim

import (
	"slices"
	"testing"

	"sereth/internal/types"
)

// counts are the fields of a Result that fold makes as blocks land on the
// primary client's chain.
type counts struct {
	BuysIncluded, BuysSucceeded, SetsIncluded, SetsSucceeded int
	DurationS                                                float64
	CensorIncluded                                           int
	AttackIncluded, AttackSucceeded, BlocksAccepted          int
}

func folded(res Result) counts {
	return counts{
		res.BuysIncluded, res.BuysSucceeded, res.SetsIncluded, res.SetsSucceeded,
		res.DurationS,
		res.Censor.Included,
		res.Attack.TxsIncluded, res.Attack.TxsSucceeded, res.Attack.BlocksAccepted,
	}
}

// walked counts the same fields the way the sim did before it had the
// feed: by walking the primary client's finished canonical chain. A
// block or transaction is classified by the tally the run filed it under,
// and a buy as censored by its sender.
func (s *Population) walked() counts {
	var cen *censor
	var atk *attack
	for _, a := range s.actors {
		switch a := a.(type) {
		case *censor:
			cen = a
		case *attack:
			atk = a
		}
	}
	buys := make(map[*tally]bool)
	for i := range s.buys {
		buys[&s.buys[i]] = true
	}
	var c counts
	count := func(included, succeeded *int, r types.Receipt) {
		*included++
		if r.Status == types.StatusSucceeded {
			*succeeded++
		}
	}
	s.canonical(func(block *types.Block, hash types.Hash, receipts []types.Receipt) {
		c.DurationS = float64(block.Header.Time)
		if s.tallies[hash] == &atk.blocks {
			c.BlocksAccepted++
		}
		for i, r := range receipts {
			tx := block.Txs[i]
			switch t := s.tallies[tx.Hash()]; {
			case buys[t]:
				count(&c.BuysIncluded, &c.BuysSucceeded, r)
				if slices.Contains(cen.targets, tx.From) {
					c.CensorIncluded++
				}
			case t == &s.sets:
				count(&c.SetsIncluded, &c.SetsSucceeded, r)
			case t == &atk.txs:
				count(&c.AttackIncluded, &c.AttackSucceeded, r)
			}
		}
	})
	return c
}

// TestFoldMatchesTheWalk holds what the population folds from its
// primary client's settlement feed, a block at a time as the chain adopts
// and orphans it, to the walk of the finished chain it replaced: the
// partition, lossy-link, combined-chaos and partitioned-crash variants
// at seeds 1-5, each with a censor on two of the four miners and an
// attacker (a forger at odd seeds, a front-runner at even ones) on top,
// must agree field for field.
// Their primary clients must orphan blocks, or the fold's taking back is
// never tried.
func TestFoldMatchesTheWalk(t *testing.T) {
	var orphaned uint64
	for _, mk := range []func(int64) ScenarioConfig{ChaosPartition, ChaosLoss, ChaosCombined, CrashPartitioned} {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := mk(seed)
			cfg.Faults.Censor = &CensorPlan{Miners: 2} // the other miners include its targets
			cfg.Faults.Attack = &AttackPlan{Kind: AdversaryForger, IntervalMs: 3000}
			if seed%2 == 0 {
				cfg.Faults.Attack = &AttackPlan{Kind: AdversaryFrontrun, IntervalMs: 4000}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Finish()
			if err != nil {
				t.Fatalf("%s seed %d: %v", cfg.Name, seed, err)
			}
			if got, want := folded(res), s.walked(); got != want {
				t.Errorf("%s seed %d:\nfold %+v\nwalk %+v", cfg.Name, seed, got, want)
			}
			n := s.clients[0].Stats().BlocksOrphaned
			t.Logf("%s seed %d: the primary client orphaned %d blocks; %+v", cfg.Name, seed, n, folded(res))
			orphaned += n
		}
	}
	if orphaned == 0 {
		t.Fatal("no primary client orphaned a block: the fold never took one back")
	}
}
