package main

import (
	"strings"
	"time"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/evm"
	"sereth/internal/hms"
	"sereth/internal/keccak"
	"sereth/internal/miner"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/txpool"
	"sereth/internal/types"
)

// probes are the traced run's shadow calls. A span around a node's
// public entry point (rpc.server, chain.mine, p2p.handle_block) cannot
// be split further from outside, so the traced run re-runs the public
// functions that entry point is built from — on the same inputs, against
// shadow pools, a shadow tracker and a follower chain that are fed and
// drained like the node's own — and times each. They are estimates of
// where an opaque span's time goes, not spans on the path: the time they
// take is booked to the trace.probes layer. Every method accepts a nil
// receiver, which is the untraced run.
type probes struct {
	c   *cluster
	res *result
	sum map[string]float64 // µs, or a plain count for the exact columns
	n   map[string]int

	bare     *txpool.Pool // admission without a tracker
	tracked  *txpool.Pool // admission with a tracker attached
	tracker  *hms.Tracker
	order    *miner.Semantic
	builder  *miner.Miner // A's chain and pool behind a private strategy
	proc     *chain.Processor
	parallel *chain.ParallelProcessor
	follower *chain.Chain     // memory chain that imports every mined block
	commits  store.Store      // where shadow trie commits land
	parent   *statedb.StateDB // A's head state before the block being mined
}

func newProbes(c *cluster, res *result) *probes {
	if c.tr == nil {
		return nil
	}
	a := c.nodes[peerMiner]
	cfg := chain.Config{GasLimit: c.cfg.gasLimit, Registry: c.reg}
	par := cfg
	par.Parallel, par.ParallelWorkers, par.ParallelThreshold = true, 2, 1
	p := &probes{
		c: c, res: res, sum: map[string]float64{}, n: map[string]int{},
		bare:    txpool.New(),
		tracked: txpool.New(),
		tracker: hms.NewTracker(hms.Config{Contract: serethAddr, SetSelector: asm.SelSet, BuySelector: asm.SelBuy}),
		builder: miner.NewMiner(a.Chain(), a.Pool(),
			miner.NewSemanticWindow(a.Tracker(), c.cfg.seed, 0), types.Address{0: 0xee}),
		proc:     chain.NewProcessor(cfg),
		parallel: chain.NewParallelProcessor(par),
		follower: chain.New(cfg, genesis()),
		commits:  store.NewMem(),
	}
	p.tracker.Attach(p.tracked)
	p.order = miner.NewSemanticWindow(p.tracker, c.cfg.seed, 0)
	return p
}

// time books one timed call under a layer metric.
func (p *probes) time(name string, fn func()) {
	t0 := time.Now()
	fn()
	p.add(name, us(time.Since(t0)))
}

func (p *probes) add(name string, v float64) {
	p.sum[name] += v
	p.n[name]++
}

func (p *probes) prefill(backlog []*types.Transaction) {
	if p == nil {
		return
	}
	p.bare.AdmitBatch(backlog)
	p.tracked.AdmitBatch(backlog)
}

// onSubmit re-runs, one by one, what a node does with a submitted
// transaction: decode, memoize, verify, admit, and after a set the view.
func (p *probes) onSubmit(tx *types.Transaction, isSet bool) {
	if p == nil {
		return
	}
	s := p.c.tr.begin(spProbe, 0)
	defer p.c.tr.end(s)
	raw := tx.EncodeRLP()
	p.time("types.decode_us", func() { _, _ = types.DecodeTransaction(raw) })
	unfrozen := tx.Copy()
	p.time("types.memoize_us", func() { unfrozen.Memoize() })
	unfrozen = tx.Copy()
	p.time("wallet.verify_us", func() { p.res.check("shadow verify", p.c.reg.VerifyTx(unfrozen)) })
	p.time("txpool.admit_bare_us", func() { p.res.check("shadow admit", p.bare.Add(tx)) })
	p.time("txpool.admit_us", func() { p.res.check("shadow admit", p.tracked.Add(tx)) })
	if isSet {
		var v hms.View
		p.time("hms.view_fresh_us", func() { v, _ = p.tracker.View() })
		p.time("hms.view_cached_us", func() { p.tracker.View() })
		p.add("hms.series_depth", float64(v.Depth))
	}
}

// beforeMine re-runs what A is about to do to build the block: snapshot
// the pool, order it, execute and seal a candidate (BuildBlock does not
// insert), plus one view read on B taken apart.
func (p *probes) beforeMine() {
	if p == nil {
		return
	}
	s := p.c.tr.begin(spProbe, 0)
	defer p.c.tr.end(s)
	var snap []*types.Transaction
	p.time("txpool.snapshot_us", func() { snap, _ = p.tracked.Snapshot() })
	p.add("txpool.depth", float64(len(snap)))
	p.parent = p.c.nodes[peerMiner].Chain().State()
	p.time("miner.order_us", func() { p.order.Order(snap, p.parent.GetNonce) })
	p.time("hms.scratch_us", func() { p.tracker.ViewOf(snap) })
	p.time("miner.build_us", func() {
		_, err := p.builder.BuildBlock(p.c.clock)
		p.res.check("shadow build", err)
	})
	b := p.c.nodes[peerView]
	if p.c.cfg.rpc { // in-process workloads have the real span
		p.time("raa.view_amv_us", func() { b.ViewAMV(types.Address{}, serethAddr) })
	}
	call := types.EncodeCall(asm.SelMark, types.FlagHead, types.Word{}, types.Word{})
	p.time("evm.call_readonly_us", func() { b.CallReadOnly(types.Address{}, serethAddr, call) })
}

// afterMine re-runs what every peer did with the mined block: execute
// the body (sequentially, and on the 2-worker parallel processor),
// import it, commit the dirty trie nodes, drain the pool.
func (p *probes) afterMine(b *types.Block) {
	if p == nil {
		return
	}
	s := p.c.tr.begin(spProbe, int(b.Number()))
	defer p.c.tr.end(s)
	var exec *chain.ExecResult
	k0 := keccak.Invocations()
	p.time("chain.process_us_per_tx", func() {
		var err error
		exec, err = p.proc.Process(p.parent, b.Header, b.Txs)
		p.res.check("shadow process", err)
	})
	p.add("keccak.per_tx", float64(keccak.Invocations()-k0))
	p.time("chain.parallel_w2_us_per_tx", func() {
		_, err := p.parallel.Process(p.parent, b.Header, b.Txs)
		p.res.check("shadow parallel process", err)
	})
	p.time("chain.insert_us_per_tx", func() {
		_, err := p.follower.InsertBlock(b)
		p.res.check("shadow insert", err)
	})
	machine := evm.New(p.parent.Copy(), evm.BlockContext{Number: b.Header.Number, Time: b.Header.Time})
	p.time("evm.call_us", func() {
		for _, tx := range b.Txs {
			machine.Call(evm.CallContext{
				Caller: tx.From, Contract: tx.To, Input: tx.Data,
				GasPrice: tx.GasPrice, Gas: tx.GasLimit - evm.IntrinsicGas(tx.Data),
			})
		}
	})
	if p.c.cfg.dataDir != "" && exec != nil {
		// A's head state is clean after its own persist, so this writes
		// exactly the nodes this block dirtied.
		p.time("statedb.commit_us", func() {
			_, nodes, err := exec.Post.CommitTo(p.commits)
			p.res.check("shadow commit", err)
			p.sum["trie.nodes_per_tx"] += float64(nodes)
		})
	}
	hashes := make([]types.Hash, len(b.Txs))
	for i, tx := range b.Txs {
		hashes[i] = tx.Hash()
	}
	p.time("txpool.remove_us", func() { p.bare.Remove(hashes) })
	p.tracked.Remove(hashes)
	p.tracker.SetCommitted(p.c.nodes[peerMiner].Tracker().Committed())
}

// perTx lists the probe metrics that are totals over a block body and
// are reported per transaction; the rest are means per call.
func perTx(name string) bool {
	return strings.HasSuffix(name, "_per_tx") || name == "evm.call_us"
}

// finish turns spans, probes and counters into the layer metrics of this
// repeat.
func (p *probes) finish(txs int) {
	if p == nil {
		return
	}
	c, res, tr := p.c, p.res, p.c.tr
	for name, sum := range p.sum {
		if perTx(name) {
			res.set(name, sum/float64(txs))
		} else {
			res.set(name, sum/float64(p.n[name]))
		}
	}
	res.set("hms.delta_us", res.metrics["txpool.admit_us"]-res.metrics["txpool.admit_bare_us"])

	res.layers, res.sumSelfNs = tr.layers(res.wall, txs)
	row := map[string]layerRow{}
	for _, r := range res.layers {
		row[r.name] = r
		if r.name != "bench.check" && r.name != "trace.probes" && r.name != "rpc.server" {
			res.set(r.name+"_us", float64(r.totalNs)/1e3/float64(r.calls))
		}
	}
	if srv := row["rpc.server"]; srv.calls > 0 {
		res.set("rpc.server_us", float64(srv.totalNs)/1e3/float64(srv.calls))
		res.set("rpc.transport_us", float64(row["rpc.send"].selfNs+row["rpc.view"].selfNs)/1e3/float64(srv.calls))
		res.set("rpc.requests_per_tx", float64(srv.calls)/float64(txs))
		res.set("rpc.errors", float64(c.rpcErrors))
	}
	res.set("node.residual_us_per_tx", float64(res.wall.Nanoseconds()-res.sumSelfNs)/1e3/float64(txs))

	var rejected uint64
	for _, n := range c.nodes {
		rejected += n.Stats().TxRejected
	}
	res.set("txpool.rejected", float64(rejected))
	if blocks := float64(c.nodes[peerMiner].Chain().Height()) * peers; c.stores[0] != nil {
		var writes, syncs, bytes int
		for _, s := range c.stores {
			writes, syncs, bytes = writes+s.writes, syncs+s.syncs, bytes+s.bytes
		}
		res.set("store.writes_per_block", float64(writes)/blocks)
		res.set("store.syncs_per_block", float64(syncs)/blocks)
		res.set("store.bytes_per_block", float64(bytes)/blocks)
	}
}
