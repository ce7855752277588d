// Command serethnode runs a single Sereth (or Geth-mode) node with a
// JSON-RPC endpoint, mining on a wall-clock interval. It demonstrates the
// node stack outside the simulation harness.
//
// Usage:
//
//	serethnode -listen :8545 -mode sereth -miner semantic -interval 5s
//	serethnode -datadir /var/lib/sereth            # durable state, survives restarts
//	serethnode -snapshot snap                      # fast-bootstrap from an exported snapshot
//	serethnode -datadir d -export-snapshot snap    # export the head on shutdown; snap is a datadir too
//	serethnode -datadir d -compact                 # sweep the log down to the reorg horizon, then exit
//
// SIGINT/SIGTERM shut the node down cleanly: the miner stops, in-flight
// RPC requests drain, the store is flushed and closed, and the final
// head is printed.
//
// Query it with any JSON-RPC client, e.g.:
//
//	curl -s -X POST -d '{"jsonrpc":"2.0","id":1,"method":"sereth_view"}' localhost:8545
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/rpc"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "serethnode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("serethnode", flag.ContinueOnError)
	listen := fs.String("listen", ":8545", "HTTP listen address")
	modeStr := fs.String("mode", "sereth", "client mode: geth or sereth")
	minerStr := fs.String("miner", "baseline", "miner: none, baseline, semantic")
	interval := fs.Duration("interval", 15*time.Second, "block interval")
	keys := fs.Int("keys", 8, "pre-registered demo keys (demo-0..demo-N)")
	parallel := fs.Bool("parallel", false, "execute block bodies on the optimistic parallel processor")
	parallelWorkers := fs.Int("parallel-workers", 0, "speculation worker count for -parallel (0 = GOMAXPROCS)")
	datadir := fs.String("datadir", "", "directory for the persistent state store; a restart recovers the head without replay")
	snapshot := fs.String("snapshot", "", "bootstrap from an exported snapshot directory (ignored when -datadir already has a head)")
	exportSnapshot := fs.String("export-snapshot", "", "export the head into this (new or empty) directory on clean shutdown; it is then a datadir of its own")
	compact := fs.Bool("compact", false, "sweep the -datadir log down to the states within the reorg horizon, print the stats, and exit")
	maxInFlight := fs.Int("max-inflight", 0, "cap concurrently served RPC requests; excess requests are shed with 503 (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compact {
		if *datadir == "" {
			return fmt.Errorf("-compact requires -datadir")
		}
		return compactDatadir(*datadir)
	}

	mode := node.ModeSereth
	if *modeStr == "geth" {
		mode = node.ModeGeth
	}
	var minerKind node.MinerKind
	switch *minerStr {
	case "none":
		minerKind = node.MinerNone
	case "baseline":
		minerKind = node.MinerBaseline
	case "semantic":
		minerKind = node.MinerSemantic
	default:
		return fmt.Errorf("unknown miner %q", *minerStr)
	}

	reg := wallet.NewRegistry()
	for i := 0; i < *keys; i++ {
		k := wallet.NewKey(fmt.Sprintf("demo-%d", i))
		reg.Register(k)
		fmt.Printf("registered key demo-%d -> %s\n", i, k.Address().Hex())
	}

	contract := types.Address{19: 0xcc}
	genesis := statedb.New()
	genesis.SetCode(contract, asm.SerethContract())
	chainCfg := chain.DefaultConfig()
	chainCfg.Registry = reg
	chainCfg.Parallel = *parallel
	chainCfg.ParallelWorkers = *parallelWorkers

	nodeCfg := node.Config{
		ID: 1, Mode: mode, Miner: minerKind,
		Contract: contract, Chain: chainCfg, Genesis: genesis,
		Network: p2p.NewNetwork(p2p.Config{}),
	}
	if *datadir != "" {
		kv, err := store.OpenFile(*datadir)
		if err != nil {
			return fmt.Errorf("open datadir: %w", err)
		}
		defer func() { _ = kv.Close() }()
		printSalvage(kv)
		nodeCfg.Store = kv
	}
	if *snapshot != "" {
		// Stat first: OpenFile would create what a mistyped path lacks.
		if _, err := os.Stat(filepath.Join(*snapshot, store.FileName)); err != nil {
			return fmt.Errorf("open snapshot: %w", err)
		}
		snap, err := store.OpenFile(*snapshot)
		if err != nil {
			return fmt.Errorf("open snapshot: %w", err)
		}
		// Open for the life of the node: without a -datadir it is what
		// the chain's untouched state keeps reading through.
		defer func() { _ = snap.Close() }()
		nodeCfg.Bootstrap = snap
	}
	n, err := node.New(nodeCfg)
	if err != nil {
		return err
	}
	fmt.Printf("node up: mode=%s miner=%s contract=%s boot=%s height=%d\n",
		mode, *minerStr, contract.Hex(), n.BootSource(), n.Chain().Height())

	rpcSrv := rpc.NewServer(n, contract, rpc.WithMaxInFlight(*maxInFlight))
	server := newHTTPServer(*listen, rpcSrv)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Mining loop.
	minerDone := make(chan struct{})
	go func() {
		defer close(minerDone)
		if minerKind == node.MinerNone {
			return
		}
		ticker := time.NewTicker(*interval)
		defer ticker.Stop()
		start := time.Now()
		var sweepErr error
		for {
			select {
			case <-ticker.C:
				block, err := n.MineAndBroadcast(uint64(time.Since(start).Seconds()))
				if err != nil {
					fmt.Fprintln(os.Stderr, "mine:", err)
					continue
				}
				if err := n.Chain().SweepErr(); err != sweepErr { // a new failure, or none
					if sweepErr = err; err != nil {
						fmt.Fprintln(os.Stderr, err)
					}
				}
				if block != nil {
					fmt.Printf("mined block %d with %d txs (%s)\n",
						block.Number(), len(block.Txs), block.Hash().Hex()[:18])
				}
			case <-ctx.Done():
				return
			}
		}
	}()

	// HTTP server.
	httpErr := make(chan error, 1)
	go func() { httpErr <- server.ListenAndServe() }()
	fmt.Printf("JSON-RPC listening on %s\n", *listen)

	select {
	case err := <-httpErr:
		<-minerDone
		return err
	case <-ctx.Done():
		fmt.Println("\nshutting down: stopping miner, draining RPC")
		<-minerDone
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = server.Shutdown(shutdownCtx)
		if *exportSnapshot != "" {
			if err := exportSnapshotDir(n, *exportSnapshot); err != nil {
				return fmt.Errorf("export snapshot: %w", err)
			}
			fmt.Printf("snapshot written to %s\n", *exportSnapshot)
		}
		// Drain whatever the HTTP layer did not finish, then flush and
		// close the store — after this every adopted block is durable.
		if err := rpcSrv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		head := n.Chain().Head()
		fmt.Printf("shut down cleanly: head=%d hash=%s\n", head.Number(), head.Hash().Hex()[:18])
		return nil
	}
}

// Listener limits. A peer that connects and then says nothing, or keeps
// a finished connection open, must not hold a goroutine and a descriptor
// for as long as the node runs; a JSON-RPC head is a few hundred bytes.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second // head and body; bodies are capped at 1 MiB
	idleTimeout       = 2 * time.Minute  // between requests on a kept-alive connection
	maxHeaderBytes    = 16 << 10
)

// newHTTPServer is the node's listener: h behind those limits.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr: addr, Handler: h,
		ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout,
		IdleTimeout: idleTimeout, MaxHeaderBytes: maxHeaderBytes,
	}
}

// printSalvage reports what opening a datadir had to repair.
func printSalvage(kv *store.FileStore) {
	if rep := kv.Salvage(); rep.Dirty() {
		fmt.Printf("datadir salvaged: torn_tail=%dB corrected=%d quarantined=%d (%dB) tmp_removed=%v\n",
			rep.TornBytes, rep.Corrected, rep.Quarantined, rep.QuarantinedBytes, rep.TmpRemoved)
	}
}

// compactDatadir opens the chain in the datadir (verifying its head if
// the store was salvaged), sweeps the log down to what the chain can
// still read, and reports the savings.
func compactDatadir(dir string) error {
	kv, err := store.OpenFile(dir)
	if err != nil {
		return fmt.Errorf("open datadir: %w", err)
	}
	defer func() { _ = kv.Close() }()
	printSalvage(kv)
	cfg := chain.DefaultConfig()
	cfg.Store = kv
	c, err := chain.Open(cfg, kv)
	if err != nil {
		return fmt.Errorf("open chain: %w", err)
	}
	records := kv.Len()
	stats, err := c.Sweep()
	if err != nil {
		return err
	}
	if err := kv.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	fmt.Printf("swept %s at head %d: %d -> %d records, %d -> %d bytes (%d reclaimed)\n",
		dir, c.Height(), records, stats.Records, stats.BytesBefore, stats.BytesAfter, stats.BytesBefore-stats.BytesAfter)
	return nil
}

// exportSnapshotDir exports the node's head into a store under dir,
// which must not hold records already: an export appended to the
// node's own datadir, or to an older snapshot, would be neither.
func exportSnapshotDir(n *node.Node, dir string) error {
	kv, err := store.OpenFile(dir)
	if err != nil {
		return err
	}
	if held := kv.Len(); held != 0 {
		_ = kv.Close()
		return fmt.Errorf("%s already holds %d records", dir, held)
	}
	if err := n.Chain().Export(kv); err != nil {
		_ = kv.Close()
		return err
	}
	return kv.Close()
}
