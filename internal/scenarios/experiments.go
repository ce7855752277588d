// The experiment registry: every sweep serethsim prints is one
// Experiment value here — a list of labelled points, the columns
// measured on each, and the function that renders a row. One runner
// (Experiment.Run) sweeps the seeds; serethsim and the η golden test are
// loops over this file.
package scenarios

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"sereth/internal/metrics"
	"sereth/internal/sim"
)

// Point is one cell of an experiment: a labelled configuration that a
// sweep runs once per seed.
type Point struct {
	Label string // the cell's left-hand text in a serethsim row
	Quick bool   // member of the -quick subset
	Make  func(seed int64) sim.ScenarioConfig
}

// Column is one measurement of an experiment: a per-run value (Of) or
// per-run samples pooled across the seeds (Pool), folded by Agg.
type Column struct {
	Name string
	Of   func(sim.Result) float64
	Pool func(sim.Result) []float64
	Agg  func([]float64) float64 // nil = mean
}

// Row is one point aggregated over its seeds.
type Row struct {
	Point
	Scenario string // Config.Name of the point's runs
	// Values holds one entry per column plus ns_per_op (wall time per
	// sim.Run); twinned experiments add honest_eta and eta_drop.
	Values map[string]float64
}

// Experiment is one sweep family.
type Experiment struct {
	Name    string
	Title   string // printed before the sweep ("" = none)
	Points  []Point
	Columns []Column
	Line    func(Row) string // renders a row, emitted as it completes
	// Twin also runs every point with its faults zeroed (same seeds), so
	// degradation is measured against a matched honest baseline.
	Twin bool
	// PerSeed emits one row per seed instead of aggregating them.
	PerSeed bool
	// QuickSeeds caps the seed count of a -quick run (0 = no cap).
	QuickSeeds int
	Footer     func([]Row) string // rendered after the sweep (nil = none)
}

// Options selects and reshapes one run of an experiment.
type Options struct {
	Seeds    []int64
	Quick    bool
	Only     []string  // when set, run exactly the points with these labels
	Shape    sim.Shape // population override applied to every configuration
	Progress func(line string)
}

func mean(xs []float64) float64 { return metrics.Summarize(xs).Mean }
func ci90(xs []float64) float64 { return metrics.Summarize(xs).CI90 }
func p50(xs []float64) float64  { return metrics.Percentile(xs, 0.50) }
func p90(xs []float64) float64  { return metrics.Percentile(xs, 0.90) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// orZero reads a fault family's section of a result: a run the family
// was not in (its section nil) reads as the zero section.
func orZero[T any](section *T) T {
	if section == nil {
		var zero T
		return zero
	}
	return *section
}

// etaColumns is η with its 90% confidence half-width — the y-axis of
// Figure 2 and the first two columns of every family — then extra.
func etaColumns(extra ...Column) []Column {
	return append([]Column{{Name: "eta", Of: sim.Result.Efficiency}, {Name: "eta_ci90", Of: sim.Result.Efficiency, Agg: ci90}}, extra...)
}

func etaLine(r Row) string {
	return fmt.Sprintf("%s  η=%.3f ±%.3f", r.Label, r.Values["eta"], r.Values["eta_ci90"])
}

// runSeeds executes one run per seed on at most GOMAXPROCS goroutines.
// Seeded runs are independent and deterministic, so parallelism changes
// wall time only: results come back in seed order.
func runSeeds(seeds []int64, mk func(seed int64) sim.ScenarioConfig) ([]sim.Result, error) {
	results := make([]sim.Result, len(seeds))
	errs := make([]error, len(seeds))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			results[i], errs[i] = sim.Run(mk(seed))
			<-sem
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seeds[i], err)
		}
	}
	return results, nil
}

// Run sweeps the selected points over the seeds and returns one row per
// point (per seed with PerSeed), reporting each through o.Progress.
func (e Experiment) Run(o Options) ([]Row, error) {
	seeds := o.Seeds
	if o.Quick && e.QuickSeeds > 0 && len(seeds) > e.QuickSeeds {
		seeds = seeds[:e.QuickSeeds]
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("%s: no seeds", e.Name)
	}
	groups := [][]int64{seeds}
	if e.PerSeed {
		groups = nil
		for _, s := range seeds {
			groups = append(groups, []int64{s})
		}
	}
	var rows []Row
	for _, p := range e.Points {
		selected := !o.Quick || p.Quick
		if len(o.Only) > 0 {
			selected = slices.Contains(o.Only, p.Label)
		}
		if !selected {
			continue
		}
		for _, g := range groups {
			row, err := e.row(p, g, o.Shape)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", e.Name, strings.TrimSpace(p.Label), err)
			}
			rows = append(rows, row)
			if o.Progress != nil {
				o.Progress(e.Line(row))
			}
		}
	}
	return rows, nil
}

func (e Experiment) row(p Point, seeds []int64, shape sim.Shape) (Row, error) {
	start := time.Now()
	results, err := runSeeds(seeds, func(seed int64) sim.ScenarioConfig { return shape.Apply(p.Make(seed)) })
	if err != nil {
		return Row{}, err
	}
	row := Row{Point: p, Scenario: results[0].Config.Name, Values: make(map[string]float64)}
	for _, c := range e.Columns {
		var xs []float64
		for _, r := range results {
			if c.Pool != nil {
				xs = append(xs, c.Pool(r)...)
			} else {
				xs = append(xs, c.Of(r))
			}
		}
		agg := c.Agg
		if agg == nil {
			agg = mean
		}
		row.Values[c.Name] = agg(xs)
	}
	runs := len(results)
	if e.Twin {
		honest, err := runSeeds(seeds, func(seed int64) sim.ScenarioConfig {
			cfg := p.Make(seed)
			cfg.Name += "_honest"
			cfg.Faults = sim.Faults{}
			return shape.Apply(cfg)
		})
		if err != nil {
			return Row{}, fmt.Errorf("honest twin: %w", err)
		}
		runs *= 2
		var etas []float64
		for _, r := range honest {
			etas = append(etas, r.Efficiency())
		}
		row.Values["honest_eta"] = mean(etas)
		row.Values["eta_drop"] = row.Values["honest_eta"] - row.Values["eta"]
	}
	row.Values["ns_per_op"] = float64(time.Since(start).Nanoseconds()) / float64(runs)
	return row, nil
}

// points builds one point per value, flagging the -quick subset.
func points[T comparable](values, quick []T, mk func(T) Point) []Point {
	out := make([]Point, len(values))
	for i, v := range values {
		out[i] = mk(v)
		out[i].Quick = slices.Contains(quick, v)
	}
	return out
}

// Figure2Lines are the three lines of the paper's Figure 2.
var Figure2Lines = []struct {
	Name string
	Make func(sets int, seed int64) sim.ScenarioConfig
}{
	{"geth_unmodified", sim.GethUnmodified},
	{"sereth_client", sim.SerethClient},
	{"semantic_mining", sim.SemanticMining},
}

// Figure2SetCounts are the set counts of the paper's sweep: 100 buys
// against 100 down to 5 sets (ratios 1:1 to 20:1).
var Figure2SetCounts = []int{100, 50, 33, 25, 20, 10, 6, 5}

// Figure2 is the paper's headline sweep — the three lines over the
// given set counts (Figure2SetCounts when none are given; -quick keeps
// 50 and 10).
func Figure2(setCounts ...int) Experiment {
	if len(setCounts) == 0 {
		setCounts = Figure2SetCounts
	}
	var pts []Point
	for _, sets := range setCounts {
		for _, line := range Figure2Lines {
			pts = append(pts, Point{
				Label: fmt.Sprintf("%-16s sets=%3d ratio=%5.1f", line.Name, sets, 100/float64(sets)),
				Quick: sets == 50 || sets == 10,
				Make:  func(seed int64) sim.ScenarioConfig { return line.Make(sets, seed) },
			})
		}
	}
	return Experiment{
		Name:   "figure2",
		Points: pts,
		Columns: etaColumns(
			Column{Name: "sets", Of: func(r sim.Result) float64 { return float64(r.Config.Sets) }},
			Column{Name: "ratio", Of: func(r sim.Result) float64 { return float64(r.Config.Buys) / float64(r.Config.Sets) }},
			Column{Name: "state_tps", Of: sim.Result.StateTps}),
		Line:   etaLine,
		Footer: figure2Footer,
	}
}

// FormatSweep renders Figure-2 rows as an aligned table, grouped by
// line and ordered by ratio — the textual form of the figure.
func FormatSweep(rows []Row) string {
	sorted := slices.Clone(rows)
	slices.SortStableFunc(sorted, func(a, b Row) int { return cmp.Compare(a.Values["ratio"], b.Values["ratio"]) })
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %6s %10s %10s %12s\n", "scenario", "ratio", "sets", "eta_mean", "eta_ci90", "state_tps")
	for _, line := range Figure2Lines {
		for _, r := range sorted {
			if r.Scenario == line.Name {
				v := r.Values
				fmt.Fprintf(&b, "%-18s %7.1f:1 %6.0f %10.4f %10.4f %12.4f\n", r.Scenario, v["ratio"], v["sets"], v["eta"], v["eta_ci90"], v["state_tps"])
			}
		}
	}
	return b.String()
}

// figure2Footer prints the table and the paper's two headline claims
// against the measured sweep.
func figure2Footer(rows []Row) string {
	type cell struct {
		scenario string
		sets     float64
	}
	etaAt := make(map[cell]float64)
	for _, r := range rows {
		etaAt[cell{r.Scenario, r.Values["sets"]}] = r.Values["eta"]
	}
	var gain, semantic float64
	var gains, semantics int
	for _, r := range rows {
		switch r.Scenario {
		case "geth_unmodified":
			if sereth, ok := etaAt[cell{"sereth_client", r.Values["sets"]}]; ok && r.Values["eta"] > 0 {
				gain += sereth / r.Values["eta"]
				gains++
			}
		case "semantic_mining":
			semantic += r.Values["eta"]
			semantics++
		}
	}
	out := "\n" + FormatSweep(rows)
	if gains > 0 {
		out += fmt.Sprintf("\nsereth_client / geth_unmodified mean improvement: %.1fx over %d ratios (paper: ~5x)\n", gain/float64(gains), gains)
	}
	if semantics > 0 {
		out += fmt.Sprintf("semantic_mining mean efficiency: %.0f%% (paper: ~80%%)\n", 100*semantic/float64(semantics))
	}
	return out
}

// The §V-C / §V-A ablation cells. Each constructor is the one definition
// of its family's configuration: the serethsim sweeps and the η table
// (EtaTable) both build their points here.

func participationPoint(fraction float64) Point {
	return Point{Label: fmt.Sprintf("fraction=%.2f", fraction), Make: func(seed int64) sim.ScenarioConfig {
		cfg := sim.SemanticMining(20, seed)
		cfg.Name = fmt.Sprintf("participation_%.2f", fraction)
		cfg.SemanticFraction = fraction
		return cfg
	}}
}

func gossipPoint(latencyMs uint64) Point {
	return Point{Label: fmt.Sprintf("latency=%-6dms", latencyMs), Make: func(seed int64) sim.ScenarioConfig {
		cfg := sim.SerethClient(20, seed)
		cfg.Name = fmt.Sprintf("gossip_%dms", latencyMs)
		cfg.GossipLatencyMs = latencyMs
		return cfg
	}}
}

func intervalPoint(intervalMs uint64) Point {
	return Point{Label: fmt.Sprintf("interval=%-5dms", intervalMs), Make: func(seed int64) sim.ScenarioConfig {
		cfg := sim.GethUnmodified(5, seed)
		cfg.Name = fmt.Sprintf("interval_%dms", intervalMs)
		cfg.SubmitIntervalMs = intervalMs
		return cfg
	}}
}

func extendHeadsPoint(extended bool) Point {
	return Point{Label: fmt.Sprintf("extended=%-5v", extended), Make: func(seed int64) sim.ScenarioConfig {
		cfg := sim.SemanticMining(50, seed)
		cfg.Name = fmt.Sprintf("extendheads_%v", extended)
		cfg.ExtendHeads = extended
		return cfg
	}}
}

func overloadPoint(intervalMs uint64) Point {
	return Point{Label: fmt.Sprintf("interval=%-5dms", intervalMs), Make: func(seed int64) sim.ScenarioConfig {
		cfg := sim.Overload(seed)
		cfg.Name = fmt.Sprintf("overload_%dms", intervalMs)
		cfg.SubmitIntervalMs = intervalMs
		return cfg
	}}
}

func burstPoint(size int) Point {
	return Point{Label: fmt.Sprintf("burst=%-3d", size), Make: func(seed int64) sim.ScenarioConfig {
		cfg := sim.Burst(seed)
		cfg.Name = fmt.Sprintf("burst_%d", size)
		cfg.BurstSize = size
		return cfg
	}}
}

// variant is one member of a fault family, labelled with Make's name.
func variant(quick bool, mk func(seed int64) sim.ScenarioConfig) Point {
	return Point{Label: mk(0).Name, Quick: quick, Make: mk}
}

// family builds a fault family's footer: a title, then each row's
// detail lines.
func family(title string, detail func(b *strings.Builder, r Row, v map[string]float64)) func([]Row) string {
	return func(rows []Row) string {
		var b strings.Builder
		b.WriteString("\n" + title + "\n")
		for _, r := range rows {
			detail(&b, r, r.Values)
		}
		return b.String()
	}
}

// Experiments returns the registry in serethsim's `-experiment all`
// order.
func Experiments() []Experiment {
	return []Experiment{
		Figure2(),
		{
			// §V sanity check: one sender, so real-time order = nonce
			// order = block order and η must be exactly 1 at every seed.
			Name:    "sequential",
			Points:  []Point{{Quick: true, Make: sim.SequentialHistoryConfig}},
			PerSeed: true,
			Columns: []Column{
				{Name: "seed", Of: func(r sim.Result) float64 { return float64(r.Config.Seed) }},
				{Name: "eta", Of: sim.Result.Efficiency},
				{Name: "set_eta", Of: sim.Result.SetEfficiency},
			},
			Line: func(r Row) string {
				return fmt.Sprintf("seed=%-6.0f buys η=%.3f sets η=%.3f (paper: exactly 1.0)", r.Values["seed"], r.Values["eta"], r.Values["set_eta"])
			},
		},
		{
			Name:    "participation",
			Title:   "semantic-miner fraction vs η (paper §V-C: benefits proportional to participation)",
			Points:  points([]float64{0, 0.25, 0.5, 0.75, 1}, []float64{0, 1}, participationPoint),
			Columns: etaColumns(),
			Line:    etaLine,
		},
		{
			Name:    "gossip",
			Title:   "gossip latency vs sereth_client η (paper §V-C: impeded TxPool propagation degrades)",
			Points:  points([]uint64{50, 250, 1000, 5000, 15000}, []uint64{50, 5000}, gossipPoint),
			Columns: etaColumns(),
			Line:    etaLine,
		},
		{
			Name:    "interval",
			Title:   "submit interval vs geth η at 20:1 (paper §V-A: high ratios sensitive to interval)",
			Points:  points([]uint64{250, 500, 1000, 2000}, []uint64{500, 2000}, intervalPoint),
			Columns: etaColumns(),
			Line:    etaLine,
		},
		{
			Name:    "extendheads",
			Title:   "HMS head extension vs η (paper §V-C: extension could approach 100%)",
			Points:  points([]bool{false, true}, []bool{false, true}, extendHeadsPoint),
			Columns: etaColumns(),
			Line:    etaLine,
		},
		{
			// Arrival rate above block capacity, sustained, into bounded
			// evict-lowest mempools. lost_pct is the share of attempted
			// buys that never made it into a block: refused by a full
			// pool, displaced by eviction, or still pending at the end.
			Name:   "overload",
			Title:  "sustained overload: arrival interval vs η with bounded evict-lowest mempools",
			Points: points([]uint64{1000, 500, 250, 125}, []uint64{500, 250}, overloadPoint),
			Columns: etaColumns(
				Column{Name: "lost_pct", Of: func(r sim.Result) float64 {
					attempted := r.BuysSubmitted + r.BuysDropped
					return 100 * float64(attempted-r.BuysIncluded) / float64(max(attempted, 1))
				}},
				Column{Name: "evictions", Of: func(r sim.Result) float64 { return float64(r.Evicted) }}),
			Line: func(r Row) string {
				return etaLine(r) + fmt.Sprintf("  lost=%.1f%%  evictions=%.0f", r.Values["lost_pct"], r.Values["evictions"])
			},
		},
		{
			// Size 1 is the per-tx baseline (sereth_client's schedule);
			// larger bursts trade view freshness within a burst for one
			// admission batch and one gossip envelope per client.
			Name:   "burst",
			Title:  "burst submission: batched admission + ONE gossip envelope per client per burst",
			Points: points([]int{1, 5, 10, 25}, []int{1, 10}, burstPoint),
			Columns: etaColumns(
				Column{Name: "msgs", Of: func(r sim.Result) float64 { return float64(r.MsgsSent) }}),
			Line: func(r Row) string { return etaLine(r) + fmt.Sprintf("  msgs/run=%.0f", r.Values["msgs"]) },
		},
		Chaos(),
		Crash(),
	}
}

// Chaos is the fault-injection family: η under churn, partitions, lossy
// links and adversarial actors, each against its honest twin.
func Chaos() Experiment {
	return Experiment{
		Name: "chaos",
		Points: []Point{
			variant(true, sim.ChaosChurn), variant(true, sim.ChaosPartition), variant(true, sim.ChaosLoss),
			variant(false, sim.ChaosCensor), variant(false, sim.ChaosForger), variant(false, sim.ChaosFrontrun),
			variant(false, sim.ChaosCombined),
		},
		Twin:       true,
		QuickSeeds: 2,
		Columns: etaColumns(
			Column{Name: "orphaned", Of: func(r sim.Result) float64 { return float64(r.BlocksOrphaned) }},
			Column{Name: "censored", Of: func(r sim.Result) float64 { c := orZero(r.Censor); return float64(c.Submitted - c.Included) }},
			// 1 when every run ended with all online peers on one head.
			Column{Name: "converged", Of: func(r sim.Result) float64 { return flag(r.Converged) }, Agg: slices.Min[[]float64]},
			// Resync latency pooled across every rejoin in every run.
			Column{Name: "resync_p50_ms", Pool: func(r sim.Result) []float64 { return orZero(r.Churn).ResyncMs }, Agg: p50},
			Column{Name: "resync_p90_ms", Pool: func(r sim.Result) []float64 { return orZero(r.Churn).ResyncMs }, Agg: p90},
			Column{Name: "rejoins", Of: func(r sim.Result) float64 { return float64(orZero(r.Churn).Rejoins) }, Agg: sum},
			Column{Name: "resync_incomplete", Of: func(r sim.Result) float64 { return float64(orZero(r.Churn).Incomplete) }, Agg: sum},
			Column{Name: "attack_sent", Of: func(r sim.Result) float64 { return float64(orZero(r.Attack).TxsSent) }, Agg: sum},
			Column{Name: "attack_included", Of: func(r sim.Result) float64 { return float64(orZero(r.Attack).TxsIncluded) }, Agg: sum},
			Column{Name: "attack_succeeded", Of: func(r sim.Result) float64 { return float64(orZero(r.Attack).TxsSucceeded) }, Agg: sum},
			// Must stay 0: forged blocks never enter a chain.
			Column{Name: "forged_accepted", Of: func(r sim.Result) float64 { return float64(orZero(r.Attack).BlocksAccepted) }, Agg: sum}),
		Line: func(r Row) string {
			v := r.Values
			return fmt.Sprintf("%-16s η=%.3f honest=%.3f drop=%+.3f orphaned=%.1f resync_p50=%.0fms converged=%t",
				r.Label, v["eta"], v["honest_eta"], v["eta_drop"], v["orphaned"], v["resync_p50_ms"], v["converged"] != 0)
		},
		Footer: family("chaos family: η under faults vs the honest twin (same seeds, faults disabled)", func(b *strings.Builder, r Row, v map[string]float64) {
			fmt.Fprintf(b, "%-16s η=%.3f ±%.3f  honest=%.3f  drop=%+.3f  orphaned=%.1f  censored=%.1f  converged=%t\n",
				r.Label, v["eta"], v["eta_ci90"], v["honest_eta"], v["eta_drop"], v["orphaned"], v["censored"], v["converged"] != 0)
			if v["rejoins"] > 0 {
				fmt.Fprintf(b, "%16s rejoins=%.0f  resync p50=%.0fms p90=%.0fms  incomplete=%.0f\n",
					"", v["rejoins"], v["resync_p50_ms"], v["resync_p90_ms"], v["resync_incomplete"])
			}
			if v["attack_sent"] > 0 || v["forged_accepted"] > 0 {
				fmt.Fprintf(b, "%16s attack txs sent=%.0f included=%.0f succeeded=%.0f  forged blocks accepted=%.0f\n",
					"", v["attack_sent"], v["attack_included"], v["attack_succeeded"], v["forged_accepted"])
			}
		}),
	}
}

// Crash is the crash-consistency family: persisting peers hard-killed
// mid-commit must salvage their log, reopen on a durable head and catch
// up over gossip, each variant against its honest twin.
func Crash() Experiment {
	return Experiment{
		Name: "crash",
		Points: []Point{
			variant(true, sim.CrashSingle), variant(false, sim.CrashMulti),
			variant(true, sim.CrashSyncEveryBlock), variant(false, sim.CrashPartitioned),
		},
		Twin:       true,
		QuickSeeds: 2,
		Columns: etaColumns(
			// 1 when every run ended with all online peers on one head.
			Column{Name: "converged", Of: func(r sim.Result) float64 { return flag(r.Converged) }, Agg: slices.Min[[]float64]},
			Column{Name: "crashes", Of: func(r sim.Result) float64 { return float64(orZero(r.Crash).Crashes) }, Agg: sum},
			// Restarts that found a durable head on disk; the rest
			// legitimately restarted from genesis because the kill
			// predated any synced write.
			Column{Name: "recovered_from_disk", Of: func(r sim.Result) float64 { return float64(orZero(r.Crash).RecoveredBoots) }, Agg: sum},
			// Salvage + gossip catch-up, pooled across every restart.
			Column{Name: "recovery_p50_ms", Pool: func(r sim.Result) []float64 { return orZero(r.Crash).RecoveryMs }, Agg: p50},
			Column{Name: "recovery_p90_ms", Pool: func(r sim.Result) []float64 { return orZero(r.Crash).RecoveryMs }, Agg: p90},
			Column{Name: "salvage_torn_bytes", Of: func(r sim.Result) float64 { return float64(orZero(r.Crash).SalvageTornBytes) }, Agg: sum},
			Column{Name: "salvage_quarantined", Of: func(r sim.Result) float64 { return float64(orZero(r.Crash).SalvageQuarantined) }, Agg: sum},
			Column{Name: "salvage_corrected", Of: func(r sim.Result) float64 { return float64(orZero(r.Crash).SalvageCorrected) }, Agg: sum}),
		Line: func(r Row) string {
			v := r.Values
			return fmt.Sprintf("%-18s η=%.3f honest=%.3f drop=%+.3f crashes=%.0f recovered-from-disk=%.0f torn=%.0fB recovery_p50=%.0fms converged=%t",
				r.Label, v["eta"], v["honest_eta"], v["eta_drop"], v["crashes"], v["recovered_from_disk"], v["salvage_torn_bytes"], v["recovery_p50_ms"], v["converged"] != 0)
		},
		Footer: family("crash family: hard kills mid-commit, salvage + reopen + gossip catch-up, vs the honest twin", func(b *strings.Builder, r Row, v map[string]float64) {
			fmt.Fprintf(b, "%-18s η=%.3f ±%.3f  honest=%.3f  drop=%+.3f  crashes=%.0f  recovered-from-disk=%.0f  converged=%t\n",
				r.Label, v["eta"], v["eta_ci90"], v["honest_eta"], v["eta_drop"], v["crashes"], v["recovered_from_disk"], v["converged"] != 0)
			fmt.Fprintf(b, "%18s recovery p50=%.0fms p90=%.0fms  salvage: torn=%.0fB quarantined=%.0f corrected=%.0f\n",
				"", v["recovery_p50_ms"], v["recovery_p90_ms"], v["salvage_torn_bytes"], v["salvage_quarantined"], v["salvage_corrected"])
		}),
	}
}
