// Command serethbench runs the repository's benchmark suite outside `go
// test` and writes a dated BENCH_<date>.json, so the performance
// trajectory is tracked across PRs. Every row comes from the registries
// in internal/scenarios — the same definitions the root bench harness
// loops over: the η table and the chaos/crash families through the
// experiment runner (η, the Figure-2 y-axis, must stay bit-identical
// across pure performance work), the micro-benchmarks through
// testing.Benchmark.
//
// Usage:
//
//	go run ./cmd/serethbench [-out BENCH_2006-01-02.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"sereth/internal/scenarios"
	"sereth/internal/sim"
)

// Record is one benchmark result row: ns_per_op plus whatever columns
// the row's family measures.
type Record struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// Report is the serialized BENCH file.
type Report struct {
	Date      string   `json:"date"`
	GoVersion string   `json:"go_version,omitempty"`
	Records   []Record `json:"records"`
}

func main() {
	defaultOut := fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	out := flag.String("out", defaultOut, "output JSON path")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "serethbench:", err)
		os.Exit(1)
	}
}

func run(out string) error {
	records, err := simRecords()
	if err != nil {
		return err
	}
	for _, r := range records {
		printRecord(r)
	}
	for _, bn := range scenarios.Benches() {
		res := testing.Benchmark(bn.Run)
		if res.N == 0 {
			return fmt.Errorf("%s: benchmark failed", bn.Name)
		}
		rec := Record{Name: bn.Name, Metrics: map[string]float64{
			"ns_per_op":     float64(res.NsPerOp()),
			"allocs_per_op": float64(res.AllocsPerOp()),
			"bytes_per_op":  float64(res.AllocedBytesPerOp()),
		}}
		maps.Copy(rec.Metrics, res.Extra)
		printRecord(rec)
		records = append(records, rec)
		if alias, ok := scenarios.BenchAliases[bn.Name]; ok {
			records = append(records, Record{Name: alias, Metrics: rec.Metrics})
		}
	}
	if runtime.NumCPU() < 4 {
		fmt.Printf("note: %d-CPU host — exec/parallel-* rows measure scheduler overhead, not parallel speedup (acceptance bar >= 2.5x at 4 workers needs >= 4 cores)\n",
			runtime.NumCPU())
	}

	data, err := json.MarshalIndent(Report{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		Records:   records,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

// simRecords runs the simulated rows: the η and scale tables once at the
// fixed seed, and every chaos and crash variant over two seeds against
// its honest twin. ns_per_op is wall time per sim.Run.
func simRecords() ([]Record, error) {
	var records []Record
	for _, sweep := range []struct {
		exp   scenarios.Experiment
		seeds []int64
	}{
		{scenarios.EtaRows(), []int64{scenarios.EtaSeed}},
		{scenarios.Chaos(), sim.DefaultSeeds(2)},
		{scenarios.Crash(), sim.DefaultSeeds(2)},
	} {
		rows, err := sweep.exp.Run(scenarios.Options{Seeds: sweep.seeds})
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			if msgs, ok := r.Values["msgs"]; ok {
				r.Values["msgs_per_sec"] = msgs / (r.Values["ns_per_op"] / 1e9)
			}
			records = append(records, Record{Name: r.Bench, Metrics: r.Values})
		}
	}
	return records, nil
}

func printRecord(r Record) {
	fmt.Printf("%-48s %12.0f ns/op", r.Name, r.Metrics["ns_per_op"])
	for _, k := range slices.Sorted(maps.Keys(r.Metrics)) {
		if k != "ns_per_op" {
			fmt.Printf("  %s=%.4g", k, r.Metrics[k])
		}
	}
	fmt.Println()
}
