package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"time"
)

var workloadNames = []string{"market-rpc", "kv-blocks", "deep-pool", "sim-fig2"}

var workloadWhy = map[string]string{
	"market-rpc": "the paper's pricing market over HTTP JSON-RPC: the only workload that crosses every hop of the write path; small blocks show per-block fixed costs, the shallow pool hides O(pool) terms",
	"kv-blocks":  "conflict-sparse puts in 250-tx blocks, submitted in-process: the execution stack and the store do the work, so RPC, HMS and pool changes must show no change here",
	"deep-pool":  "the market's traffic in-process on a standing 10000-tx backlog, no store: pool, tracker and miner ordering costs at depth dominate, so a shallow-pool gain that costs deep pools shows",
	"sim-fig2":   "the nine Figure-2 cells x 80 seeds through sim.Run: the only workload with 250 ms gossip, Poisson blocks, the baseline miner, Geth clients and eta below 1, so a change of behaviour moves eta",
}

// metricDef declares one reported number. Bound is the share of the
// reference value by which the metric may get worse before a comparison
// fails; Exact metrics must not differ at all between two runs of the
// same seed.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
	On     []string // workloads that report it; nil = all
}

// Which workloads report a metric.
var (
	onMarket  = []string{"market-rpc", "deep-pool"}
	onCluster = []string{"market-rpc", "kv-blocks", "deep-pool"}
	onStored  = []string{"market-rpc", "kv-blocks"}
	onRPC     = []string{"market-rpc"}
	onSim     = []string{"sim-fig2"}
)

// endToEnd is what a user of the system sees. The metrics every workload
// reports are the driver's end_to_end list; the driver wants each of its
// metrics from each workload, so the ones that exist only on some
// workloads travel in its per_layer list (measured with tracing off all
// the same) and are bounded by this program's own -compare.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "tx_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_tx", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_tx", Unit: "count", Better: "lower", Bound: 0.05},
	// Exact at a given seed; the bound is for the driver, which varies the
	// seed, and covers sim-fig2's seed-to-seed spread.
	{Name: "eta", Unit: "ratio", Better: "higher", Bound: 0.12, Exact: true},
	// With the cluster still up. sim-fig2 keeps nothing up: its resting
	// heap is this program's own inputs, so it does not report one.
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05, On: onCluster},
	{Name: "submit_visible_ms_p50", Unit: "ms", Better: "lower", Bound: 0.30, On: onMarket},
	{Name: "submit_visible_ms_p99", Unit: "ms", Better: "lower", Bound: 0.50, On: onMarket},
	{Name: "view_ms_p50", Unit: "ms", Better: "lower", Bound: 0.30, On: onMarket},
	// Not on deep-pool: an in-process view read is ~3 us, its p99 is GC
	// assists and spread 18 % between runs of the same code.
	{Name: "view_ms_p99", Unit: "ms", Better: "lower", Bound: 0.50, On: onRPC},
	{Name: "commit_ms_p50", Unit: "ms", Better: "lower", Bound: 0.30, On: onCluster},
	{Name: "commit_ms_p90", Unit: "ms", Better: "lower", Bound: 0.35, On: onCluster},
	{Name: "store_bytes_per_tx", Unit: "B", Better: "lower", Exact: true, On: onStored},
	{Name: "recover_ms", Unit: "ms", Better: "lower", Bound: 0.30, On: onStored},
	{Name: "op_fail_ratio", Unit: "ratio", Better: "lower", Exact: true},
}

func timeUs(name string, on []string) metricDef {
	return metricDef{Name: name, Unit: "us", Better: "lower", On: on}
}

func count(name string, on []string) metricDef {
	return metricDef{Name: name, Unit: "count", Better: "lower", Exact: true, On: on}
}

// perLayer is measured on the traced repeat; README.md says which
// end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	timeUs("rpc.send_us", onRPC), timeUs("rpc.view_us", onRPC),
	timeUs("rpc.server_us", onRPC), timeUs("rpc.transport_us", onRPC),
	count("rpc.requests_per_tx", onRPC), count("rpc.errors", onRPC),
	timeUs("client.sign_us", onMarket),
	timeUs("types.decode_us", onCluster), timeUs("types.memoize_us", onCluster),
	timeUs("wallet.verify_us", onCluster),
	timeUs("txpool.admit_us", onCluster), timeUs("txpool.admit_bare_us", onCluster),
	timeUs("txpool.snapshot_us", onCluster), timeUs("txpool.remove_us", onCluster),
	count("txpool.depth", onCluster), count("txpool.rejected", onCluster),
	timeUs("hms.delta_us", onCluster), timeUs("hms.view_fresh_us", onMarket),
	timeUs("hms.view_cached_us", onMarket), timeUs("hms.scratch_us", onCluster),
	count("hms.series_depth", onMarket),
	timeUs("raa.view_amv_us", onMarket), timeUs("evm.call_readonly_us", onCluster),
	timeUs("node.submit_us", []string{"kv-blocks", "deep-pool"}),
	timeUs("p2p.deliver_us", onCluster), timeUs("p2p.handle_tx_us", onCluster),
	timeUs("p2p.handle_block_us", onCluster), count("p2p.msgs_per_tx", onCluster),
	timeUs("miner.order_us", onCluster), timeUs("miner.build_us", onCluster),
	timeUs("chain.mine_us", onCluster), timeUs("chain.process_us_per_tx", onCluster),
	timeUs("chain.insert_us_per_tx", onCluster), timeUs("chain.parallel_w2_us_per_tx", onCluster),
	timeUs("evm.call_us", onCluster), count("keccak.per_tx", onCluster),
	timeUs("statedb.commit_us", onStored), count("trie.nodes_per_tx", onStored),
	timeUs("store.write_us", onStored), timeUs("store.sync_us", onStored),
	count("store.writes_per_block", onStored), count("store.syncs_per_block", onStored),
	count("store.bytes_per_block", onStored),
	{Name: "store.open_ms", Unit: "ms", Better: "lower", On: onStored},
	{Name: "chain.open_ms", Unit: "ms", Better: "lower", On: onStored},
	{Name: "sim.run_ms.geth", Unit: "ms", Better: "lower", On: onSim},
	{Name: "sim.run_ms.sereth", Unit: "ms", Better: "lower", On: onSim},
	{Name: "sim.run_ms.semantic", Unit: "ms", Better: "lower", On: onSim},
	count("sim.msgs_per_run", onSim), count("sim.blocks_per_run", onSim),
	timeUs("node.residual_us_per_tx", nil),
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

func (d metricDef) on(workload string) bool {
	return d.On == nil || slices.Contains(d.On, workload)
}

// driverEndToEnd reports whether the metric is in the driver's
// end_to_end list: every workload reports it and it is never zero.
func (d metricDef) driverEndToEnd() bool { return d.On == nil && d.Name != "op_fail_ratio" }

// driverLists splits the two tables the way BENCHMARK.json declares them.
func driverLists() (e2e, layer []metricDef) {
	for _, d := range endToEnd {
		switch {
		case d.driverEndToEnd():
			e2e = append(e2e, d)
		case d.Name != "op_fail_ratio": // the driver reads attempted/failed instead
			layer = append(layer, d)
		}
	}
	return e2e, append(layer, perLayer...)
}

// result is what one repeat measured.
type result struct {
	metrics   map[string]float64
	samples   map[string]int // sample count behind each percentile family
	attempted int
	failed    int
	notes     []string
	wall      time.Duration
	txs       int
	layers    []layerRow
	sumSelfNs int64
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) fail(format string, a ...any) {
	r.failed++
	if len(r.notes) < 5 {
		r.notes = append(r.notes, fmt.Sprintf(format, a...))
	}
}

// check counts one operation and fails it on a non-nil error.
func (r *result) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

// percentiles sets <prefix>_pNN for each p that has enough samples
// beyond it; a percentile that does not is left out, never faked.
func (r *result) percentiles(prefix string, samples []float64, ps ...float64) {
	r.samples[prefix] = len(samples)
	for _, p := range ps {
		if v, ok := percentile(samples, p); ok {
			r.set(fmt.Sprintf("%s_p%02.0f", prefix, p*100), v)
		}
	}
}

// summary is one workload's reported numbers: the median over the timed
// repeats of every end-to-end metric, and the traced repeat's layers.
type summary struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Repeats   int                  `json:"repeats"`
	Values    map[string]float64   `json:"values"`
	PerRepeat map[string][]float64 `json:"per_repeat"`
	Samples   map[string]int       `json:"samples"`
	// PhaseSeconds is how long each repeat's timed phase ran.
	PhaseSeconds []float64          `json:"phase_seconds"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Notes        []string           `json:"notes,omitempty"`

	traced *result
}

// summarize folds the repeats. setup_s is the one-time input generation
// plus the median, over every untraced repeat with the warm-up, of what
// the repeat did outside its timed phase; an exact metric that differs
// between repeats is a failure.
func summarize(workload string, seed int64, inputs time.Duration, warmup *result, timed []*result, traced *result) *summary {
	s := &summary{
		Workload: workload, Seed: seed, Repeats: len(timed),
		Values: map[string]float64{}, PerRepeat: map[string][]float64{}, Samples: map[string]int{},
		traced: traced,
	}
	all := append([]*result{warmup}, timed...)
	if traced != nil {
		all = append(all, traced)
	}
	for _, r := range all {
		s.Attempted += r.attempted
		s.Failed += r.failed
		s.Notes = append(s.Notes, r.notes...)
	}
	for _, d := range endToEnd {
		if !d.on(workload) || d.Name == "op_fail_ratio" {
			continue
		}
		var vals []float64
		for _, r := range timed {
			if v, ok := r.metrics[d.Name]; ok {
				vals = append(vals, v)
			}
		}
		if d.Name == "setup_s" {
			vals = append([]float64{warmup.metrics[d.Name]}, vals...)
			s.Values[d.Name], s.PerRepeat[d.Name] = inputs.Seconds()+median(vals), vals
			continue
		}
		if len(vals) != len(timed) {
			continue // a percentile without enough samples is not reported
		}
		s.Values[d.Name], s.PerRepeat[d.Name] = median(vals), vals
		if d.Exact && slices.Max(vals) != slices.Min(vals) {
			s.Failed++
			s.Notes = append(s.Notes, fmt.Sprintf("%s is not the same on every repeat: %v", d.Name, vals))
		}
	}
	for _, r := range timed {
		s.PhaseSeconds = append(s.PhaseSeconds, r.wall.Seconds())
		s.Samples = r.samples // the same on every repeat: sizes are fixed
	}
	s.Values["op_fail_ratio"] = float64(s.Failed) / float64(max(1, s.Attempted))
	if traced != nil {
		s.Layers = map[string]float64{}
		for _, d := range perLayer {
			if v, ok := traced.metrics[d.Name]; ok && d.on(workload) {
				s.Layers[d.Name] = v
			}
		}
		s.Layers["trace.overhead_ratio"] = s.Values["tx_per_s"] / traced.metrics["tx_per_s"]
	}
	return s
}

// print writes the human-readable tables.
func (s *summary) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  seed %d  median of %d timed repeats after one warm-up ==\n", s.Workload, s.Seed, s.Repeats)
	for _, d := range endToEnd {
		v, ok := s.Values[d.Name]
		if !ok {
			continue
		}
		kind := fmt.Sprintf("bound %.0f%%", d.Bound*100)
		if d.Exact {
			kind = "exact"
		}
		fmt.Fprintf(w, "  %-24s %14.4f %-6s %-10s %v", d.Name, v, d.Unit, kind, compact(s.PerRepeat[d.Name]))
		if i := strings.LastIndex(d.Name, "_p"); i > 0 {
			if n, ok := s.Samples[d.Name[:i]]; ok {
				fmt.Fprintf(w, "  n=%d/repeat", n)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-24s %14s %-6s %-10s %v\n", "(timed phase)", "", "s", "", compact(s.PhaseSeconds))
	for _, n := range s.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
	if s.traced == nil {
		return
	}
	t := s.traced
	fmt.Fprintf(w, "\n  traced repeat: %d txs in %.3f s; spans on the path, self = span - children\n", t.txs, t.wall.Seconds())
	fmt.Fprintf(w, "  %-20s %9s %12s %12s %8s\n", "layer", "calls", "mean us", "self us/tx", "share")
	for _, r := range t.layers {
		fmt.Fprintf(w, "  %-20s %9d %12.2f %12.3f %7.2f%%\n", r.name, r.calls,
			float64(r.totalNs)/1e3/float64(r.calls), r.selfUsPerTx, r.shareOfWallPc)
	}
	wallPerTx := us(t.wall) / float64(t.txs)
	fmt.Fprintf(w, "  %-20s %9s %12s %12.3f %7.2f%%  (wall %.3f us/tx)\n", "residual", "", "",
		s.Layers["node.residual_us_per_tx"], 100*s.Layers["node.residual_us_per_tx"]/wallPerTx, wallPerTx)
	fmt.Fprintf(w, "  shadow probes and counts (booked to trace.probes, not on the path):\n")
	names := make([]string, 0, len(s.Layers))
	for k := range s.Layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "    %-32s %14.4f\n", k, s.Layers[k])
	}
}

func compact(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// driverLine is the last line of standard output: the driver's JSON
// object. Every metric of the list appears; a layer that does no work
// on this workload reads 0.
func (s *summary) driverLine(traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	e2e, layer := driverLists()
	defs, src := e2e, s.Values
	if traced {
		defs = layer
		src = map[string]float64{}
		for k, v := range s.Values {
			src[k] = v
		}
		for k, v := range s.Layers {
			src[k] = v
		}
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := src[d.Name]
		switch {
		case !ok && d.on(s.Workload):
			return "", fmt.Errorf("%s: metric %s was not measured", s.Workload, d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return "", fmt.Errorf("%s: metric %s is %v", s.Workload, d.Name, v)
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct": s.Failed == 0, "attempted": s.Attempted, "failed": s.Failed, "metrics": metrics,
	})
	return string(out), err
}

// benchmarkJSON is the content of BENCHMARK.json, generated from the
// tables above so the two cannot drift (the smoke test compares them).
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eDef struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []wl       `json:"workloads"`
		EndToEnd   []e2eDef   `json:"end_to_end"`
		PerLayer   []layerDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, n := range workloadNames {
		doc.Workloads = append(doc.Workloads, wl{n, workloadWhy[n]})
	}
	e2e, layer := driverLists()
	for _, d := range e2e {
		doc.EndToEnd = append(doc.EndToEnd, e2eDef{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range layer {
		doc.PerLayer = append(doc.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}

// compare prints, per workload and metric, how far two sets of summaries
// disagree next to the allowed share, and reports whether every timing
// is inside tolerance×bound and every exact metric is identical. setup_s
// is held to its whole bound: it is mostly fsync and file reads, and the
// pipeline too exempts it from its spread rule.
func compare(w io.Writer, a, b []*summary, tolerance float64) bool {
	ok := true
	byName := map[string]*summary{}
	for _, s := range b {
		byName[s.Workload] = s
	}
	fmt.Fprintf(w, "%-12s %-26s %14s %14s %9s %9s\n", "workload", "metric", "first", "second", "differ", "allowed")
	for _, sa := range a {
		sb := byName[sa.Workload]
		if sb == nil {
			continue
		}
		row := func(d metricDef, va, vb float64) {
			diff := math.Abs(vb-va) / math.Max(math.Abs(va), 1e-12)
			if va == vb {
				diff = 0
			}
			limit := d.Bound * tolerance
			if d.Name == "setup_s" {
				limit = d.Bound
			}
			allowed, verdict := fmt.Sprintf("%.1f%%", 100*limit), ""
			switch {
			case d.Exact:
				allowed = "exact"
				if va != vb {
					verdict, ok = "  DIFFERS", false
				}
			case diff > limit:
				verdict, ok = "  TOO FAR", false
			}
			fmt.Fprintf(w, "%-12s %-26s %14.4f %14.4f %8.2f%% %9s%s\n", sa.Workload, d.Name, va, vb, 100*diff, allowed, verdict)
		}
		for _, d := range endToEnd {
			va, oka := sa.Values[d.Name]
			vb, okb := sb.Values[d.Name]
			if oka && okb {
				row(d, va, vb)
			}
		}
		for _, d := range perLayer {
			va, oka := sa.Layers[d.Name]
			vb, okb := sb.Layers[d.Name]
			if oka && okb && d.Exact {
				row(d, va, vb)
			}
		}
	}
	return ok
}

func saveSummaries(path string, sums []*summary) error {
	out, err := json.MarshalIndent(sums, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func loadSummaries(path string) ([]*summary, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sums []*summary
	if err := json.Unmarshal(raw, &sums); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sums, nil
}
