// Command serethsim regenerates the paper's experiments on the simulated
// network. Every experiment is an entry of the registry in
// internal/scenarios: the Figure-2 sweep (transaction efficiency vs
// buy:set ratio for the three client/miner configurations), the
// sequential-history sanity check, the §V-C/§V-A ablations
// (participation, gossip, interval, extendheads), the sustained-overload
// mempool-eviction family, the burst-submission family, the chaos
// fault-injection family and the crash-consistency family (the last two
// measured against an honest twin at the same seeds). The
// -peers/-clients/-topology/-degree flags rescale every experiment from
// the paper's 3-peer rig to an N-peer population over an arbitrary
// gossip graph.
//
// Usage:
//
//	serethsim -experiment figure2 -runs 10
//	serethsim -experiment figure2 -peers 50 -clients 2 -topology dregular -degree 6
//	serethsim -experiment chaos -churn -partition -runs 3
//	serethsim -experiment all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sereth/internal/scenarios"
	"sereth/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serethsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	experiments := scenarios.Experiments()
	var names []string
	for _, e := range experiments {
		names = append(names, e.Name)
	}
	fs := flag.NewFlagSet("serethsim", flag.ContinueOnError)
	experiment := fs.String("experiment", "figure2", "one of: "+strings.Join(names, ", ")+", all")
	runs := fs.Int("runs", 10, "seeded runs per data point")
	quick := fs.Bool("quick", false, "smaller sweep for a fast check")
	peers := fs.Int("peers", 0, "total peer count (miners + clients); 0 keeps the paper's 3-peer rig")
	clients := fs.Int("clients", 1, "non-mining client peers (used when -peers is set)")
	topology := fs.String("topology", "", "gossip topology: mesh (default), ring, dregular")
	degree := fs.Int("degree", 0, "neighbor degree for -topology dregular")
	parallel := fs.Bool("parallel", false,
		"execute block bodies on the optimistic parallel processor (4 workers, threshold 1); η is bit-identical to sequential execution")
	rpcClients := fs.Bool("rpc-clients", false,
		"clients reach their peers over real HTTP JSON-RPC (sereth_view / eth_sendRawTransaction); η is bit-identical to in-process clients")
	persist := fs.Bool("persist", false,
		"back every node's chain with a write-through store, flushing state and blocks at each adoption; η is bit-identical either way")
	churn := fs.Bool("churn", false, "chaos: include the churn variant (flags combine; none selected = every variant)")
	partition := fs.Bool("partition", false, "chaos: include the partition variant")
	loss := fs.Bool("loss", false, "chaos: include the lossy-links variant")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var chaosOnly []string
	for name, on := range map[string]bool{"chaos_churn": *churn, "chaos_partition": *partition, "chaos_loss": *loss} {
		if on {
			chaosOnly = append(chaosOnly, name)
		}
	}
	shape, err := shapeFromFlags(*peers, *clients, *topology, *degree)
	if err != nil {
		return err
	}
	shape.ParallelExec = *parallel
	shape.RPCClients = *rpcClients
	shape.Persist = *persist

	ran := false
	for _, e := range experiments {
		if *experiment != "all" && *experiment != e.Name {
			continue
		}
		ran = true
		if *experiment == "all" {
			fmt.Fprintf(out, "\n=== %s ===\n", e.Name)
		}
		if e.Title != "" {
			fmt.Fprintln(out, e.Title)
		}
		opts := scenarios.Options{
			Seeds: sim.DefaultSeeds(*runs), Quick: *quick, Shape: shape,
			Progress: func(line string) { fmt.Fprintln(out, line) },
		}
		if e.Name == "chaos" {
			opts.Only = chaosOnly
		}
		rows, err := e.Run(opts)
		if err != nil {
			return err
		}
		if e.Footer != nil {
			fmt.Fprint(out, e.Footer(rows))
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return nil
}

// shapeFromFlags maps -peers/-clients/-topology/-degree onto a
// population Shape: the mining peers split evenly between semantic and
// baseline miners (semantic gets the odd one), so SemanticFraction
// keeps selecting the producer kind per block.
func shapeFromFlags(peers, clients int, topology string, degree int) (sim.Shape, error) {
	sh := sim.Shape{Topology: topology, Degree: degree}
	if peers == 0 {
		return sh, nil
	}
	if clients <= 0 {
		clients = 1
	}
	miners := peers - clients
	if miners < 2 {
		return sim.Shape{}, fmt.Errorf("-peers %d with %d clients leaves %d miners; the sweeps need at least 2 (1 semantic + 1 baseline)",
			peers, clients, miners)
	}
	sh.SemanticMiners = (miners + 1) / 2
	sh.BaselineMiners = miners / 2
	sh.Clients = clients
	return sh, nil
}
