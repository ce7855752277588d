package main

import (
	"strings"

	"sereth/internal/scenarios"
	"sereth/internal/sim"
)

// simSeedsPerCell × the nine Figure-2 cells = 720 sim.Run calls a repeat.
const simSeedsPerCell = 80

// golden are the seed-101 cells pinned by internal/sim's
// TestEtaGoldenSeed101; every repeat re-checks them, so a change of
// behaviour fails the run whatever --seed is.
var golden = []struct {
	mk   func(int, int64) sim.ScenarioConfig
	sets int
	eta  float64
}{
	{sim.GethUnmodified, 20, 0}, {sim.GethUnmodified, 5, 0.09},
	{sim.SerethClient, 20, 0.36}, {sim.SerethClient, 5, 0.64},
	{sim.SemanticMining, 20, 0.68}, {sim.SemanticMining, 5, 0.88},
}

// simFig2 is what a reader reproducing the paper's Figure 2 waits for:
// geth / sereth / semantic × 100, 20, 5 sets, through sim.Run.
type simFig2 struct {
	cfgs []sim.ScenarioConfig // seed-major, so any prefix keeps the cell mix
}

// simLine maps a Figure-2 line's config name to its span.
var simLine = map[string]spanName{
	"geth_unmodified": spSimGeth, "sereth_client": spSimSereth, "semantic_mining": spSimSemantic,
}

func (w *simFig2) prepare(env *env) {
	var cells []scenarios.Eta
	for _, e := range scenarios.EtaTable() {
		if strings.HasPrefix(e.Name, "figure2/") {
			cells = append(cells, e)
		}
	}
	seeds := env.size(simSeedsPerCell, 1)
	for s := 0; s < seeds; s++ {
		for _, e := range cells {
			w.cfgs = append(w.cfgs, e.Make(env.seed*1000+int64(s)))
		}
	}
}

func (w *simFig2) repeat(_ *env, fraction float64, tr *tracer) *result {
	res := newResult()
	for _, g := range golden {
		res.attempted++
		r, err := sim.Run(g.mk(g.sets, 101))
		if err != nil || r.Efficiency() != g.eta {
			res.fail("golden cell %s sets=%d: η=%v err=%v, pinned %v", r.Config.Name, g.sets, r.Efficiency(), err, g.eta)
		}
	}

	n := max(9, int(float64(len(w.cfgs))*fraction)/9*9)
	var etaSum float64
	var msgs uint64
	var blocks int
	timedPhase(res, nil, tr, func() int {
		included := 0
		for i, cfg := range w.cfgs[:n] {
			res.attempted++
			s := tr.begin(simLine[cfg.Name], i)
			r, err := sim.Run(cfg)
			tr.end(s)
			if err != nil {
				res.fail("sim run %d (%s seed %d): %v", i, cfg.Name, cfg.Seed, err)
				continue
			}
			included += r.BuysIncluded + r.SetsIncluded
			etaSum += r.Efficiency()
			msgs += r.MsgsSent
			blocks += r.Blocks
		}
		return included
	})
	res.set("eta", etaSum/float64(n))
	if tr != nil {
		res.layers, res.sumSelfNs = tr.layers(res.wall, res.txs)
		for _, r := range res.layers {
			res.set(strings.Replace(r.name, "sim.run.", "sim.run_ms.", 1), float64(r.totalNs)/1e6/float64(r.calls))
		}
		res.set("sim.msgs_per_run", float64(msgs)/float64(n))
		res.set("sim.blocks_per_run", float64(blocks)/float64(n))
		res.set("node.residual_us_per_tx", float64(res.wall.Nanoseconds()-res.sumSelfNs)/1e3/float64(res.txs))
	}
	return res
}
