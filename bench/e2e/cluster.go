package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
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

// The three peers of every cluster workload.
const (
	peerMiner  = iota // A: semantic miner, mines every block
	peerView          // B: client peer that serves view reads
	peerSubmit        // C: client peer that receives submissions
	peers
)

var (
	serethAddr = types.Address{19: 0xcc}
	kvAddr     = types.Address{19: 0xd0}
)

// modelDelayMs is the injected one-hop message delay, in MODEL time: the
// driver advances the network clock by it after every send, which costs
// no wall time. Every latency the benchmark reports is therefore
// processor time only.
const modelDelayMs = 1

type clusterConfig struct {
	dataDir  string // one FileStore per peer under it; "" = no store
	rpc      bool   // publish B and C over HTTP JSON-RPC
	gasLimit uint64
	seed     int64
	keys     []*wallet.Key
}

// cluster is three real nodes on one in-process network, driven from one
// goroutine. Block timestamps and network time come from clock, which
// only the driver advances, so message and byte counts repeat exactly.
type cluster struct {
	cfg       clusterConfig
	tr        *tracer
	reg       *wallet.Registry
	net       *p2p.Network
	nodes     [peers]*node.Node
	nodeCfgs  [peers]node.Config
	stores    [peers]*tracedStore // set only on a traced run with a datadir
	servers   []*httptest.Server
	view      *rpc.Client // -> B
	submit    *rpc.Client // -> C
	rpcErrors int
	clock     uint64
}

func genesis() *statedb.StateDB {
	g := statedb.New()
	g.SetCode(serethAddr, asm.SerethContract())
	g.SetCode(kvAddr, asm.KVStoreContract())
	return g
}

func newCluster(cfg clusterConfig, tr *tracer) (*cluster, error) {
	c := &cluster{cfg: cfg, tr: tr, reg: wallet.NewRegistry()}
	for _, k := range cfg.keys {
		c.reg.Register(k)
	}
	c.net = p2p.NewNetwork(p2p.Config{LatencyMs: modelDelayMs, Seed: cfg.seed})
	for i := 0; i < peers; i++ {
		nc := node.Config{
			ID:       p2p.PeerID(i + 1),
			Mode:     node.ModeSereth,
			Contract: serethAddr,
			Chain:    chain.Config{GasLimit: cfg.gasLimit, Registry: c.reg},
			// Each peer gets a private genesis instance: a shared one would
			// be marked clean by the first peer's commit and the others'
			// stores would miss the genesis trie nodes.
			Genesis: genesis(),
			Network: c.net,
			Seed:    cfg.seed + int64(i+1)*7,
		}
		if i == peerMiner {
			nc.Miner = node.MinerSemantic
		}
		if cfg.dataDir != "" {
			nc.Chain.SyncEvery = 1
			fs, err := store.OpenFile(c.peerDir(i))
			if err != nil {
				c.close()
				return nil, err
			}
			nc.Store = fs
			if tr != nil {
				c.stores[i] = &tracedStore{FileStore: fs, tr: tr}
				nc.Store = c.stores[i]
			}
		}
		n, err := node.New(nc)
		if err != nil {
			c.close()
			return nil, err
		}
		if tr != nil {
			c.net.Join(nc.ID, tracedPeer{inner: n, tr: tr})
		}
		c.nodes[i], c.nodeCfgs[i] = n, nc
	}
	if cfg.rpc {
		c.view = c.serve(c.nodes[peerView])
		c.submit = c.serve(c.nodes[peerSubmit])
	}
	return c, nil
}

func (c *cluster) peerDir(i int) string {
	return filepath.Join(c.cfg.dataDir, fmt.Sprintf("peer%d", i))
}

func (c *cluster) serve(n *node.Node) *rpc.Client {
	var h http.Handler = rpc.NewServer(n, serethAddr)
	if c.tr != nil {
		h = tracedHandler(h, c.tr)
	}
	srv := httptest.NewServer(h)
	c.servers = append(c.servers, srv)
	return rpc.NewClient(srv.URL, rpc.WithTimeout(30*time.Second))
}

// step advances model time by one hop, which delivers everything sent
// since the last step.
func (c *cluster) step() {
	c.clock += modelDelayMs
	s := c.tr.begin(spDeliver, 0)
	c.net.AdvanceTo(c.clock)
	c.tr.end(s)
}

// mine has A build, import and gossip the next block, delivers it, and
// checks that every peer adopted it: equal head hashes, which cover the
// state root. It returns nil after recording the failure otherwise.
func (c *cluster) mine(res *result) *types.Block {
	res.attempted++
	number := int(c.nodes[peerMiner].Chain().Height()) + 1
	s := c.tr.begin(spMine, number)
	b, err := c.nodes[peerMiner].MineAndBroadcast(c.clock)
	c.tr.end(s)
	if err != nil || b == nil {
		res.fail("mine block %d: %v", number, err)
		return nil
	}
	c.step()
	s = c.tr.begin(spCheck, number)
	defer c.tr.end(s)
	want := b.Hash()
	for i, n := range c.nodes {
		if head := n.Chain().Head(); head.Hash() != want {
			res.fail("block %d: peer %d is at block %d with another head", number, i, head.Number())
			return nil
		}
	}
	return b
}

// close stops the RPC servers and closes every node, which syncs and
// closes its store.
func (c *cluster) close() {
	for _, srv := range c.servers {
		srv.Close()
	}
	c.servers = nil
	for _, n := range c.nodes {
		if n != nil {
			_ = n.Close() // the stores are scratch; size and recovery checks follow
		}
	}
}

// destroy closes the cluster and removes its datadirs.
func (c *cluster) destroy() {
	c.close()
	_ = os.RemoveAll(c.cfg.dataDir) // scratch; "" removes nothing
}

// settle ends a repeat after its timed phase: every one of the n
// submitted transactions must have a receipt and every set must have
// succeeded; η is read from the receipts like the paper does, succeeded /
// included over the given selector; then the layer metrics, and with a
// datadir the durable end of the path.
func (c *cluster) settle(res *result, pr *probes, n int, etaOver types.Selector) {
	included, succeeded := c.receipts()
	res.attempted++
	total := 0
	for _, k := range included {
		total += k
	}
	if total != n {
		res.fail("%d of %d submitted transactions have a receipt", total, n)
	}
	if succeeded[asm.SelSet] != included[asm.SelSet] {
		res.fail("%d of %d sets succeeded", succeeded[asm.SelSet], included[asm.SelSet])
	}
	res.set("eta", float64(succeeded[etaOver])/float64(included[etaOver]))
	sent, _ := c.net.Stats()
	res.set("p2p.msgs_per_tx", float64(sent)/float64(n))
	pr.finish(n)
	if c.cfg.dataDir != "" {
		c.closeAndRecover(res)
	}
}

// receipts walks A's chain and counts, per selector, how many
// transactions were included and how many succeeded.
func (c *cluster) receipts() (included, succeeded map[types.Selector]int) {
	included, succeeded = map[types.Selector]int{}, map[types.Selector]int{}
	ch := c.nodes[peerMiner].Chain()
	for n := uint64(1); n <= ch.Height(); n++ {
		b := ch.BlockByNumber(n)
		rs := ch.Receipts(b.Hash())
		for i, tx := range b.Txs {
			sel, _ := tx.Selector()
			included[sel]++
			if i < len(rs) && rs[i].Status == types.StatusSucceeded {
				succeeded[sel]++
			}
		}
	}
	return included, succeeded
}

// closeAndRecover is the durable end of the write path: close the
// cluster, measure the mean log size per peer, then reopen A's datadir
// on a fresh network and require the head it had before the close.
func (c *cluster) closeAndRecover(res *result) {
	head := c.nodes[peerMiner].Chain().Head()
	nc, dir := c.nodeCfgs[peerMiner], c.peerDir(peerMiner)
	c.close()
	var bytes int64
	for i := 0; i < peers; i++ {
		st, err := os.Stat(filepath.Join(c.peerDir(i), store.FileName))
		if err != nil {
			res.fail("stat peer %d log: %v", i, err)
			return
		}
		bytes += st.Size()
	}
	res.set("store_bytes_per_tx", float64(bytes)/peers/float64(res.txs))

	// A restarted node starts with an empty heap: drop the old cluster
	// first, or a GC cycle over its state lands inside some recoveries and
	// not others (kv-blocks read 130 or 600 ms).
	c.nodes, c.nodeCfgs, c.stores, c.net = [peers]*node.Node{}, [peers]node.Config{}, [peers]*tracedStore{}, nil
	nc.Network, nc.Store, nc.Genesis = nil, nil, nil // the old network still holds the old nodes
	runtime.GC()

	// Up to three recoveries within a second, median reported: a single
	// ~50 ms reopen showed 8 % run-to-run on page-cache luck alone.
	var total, open []float64
	for began := time.Now(); len(total) < 3 && (len(total) == 0 || time.Since(began) < time.Second); {
		res.attempted++
		t0 := time.Now()
		fs, err := store.OpenFile(dir)
		if err != nil {
			res.fail("reopen store: %v", err)
			return
		}
		opened := time.Since(t0)
		nc.Store = fs
		nc.Network = p2p.NewNetwork(p2p.Config{LatencyMs: modelDelayMs})
		n, err := node.New(nc)
		recovered := time.Since(t0)
		if err != nil {
			_ = fs.Close()
			res.fail("recover node: %v", err)
			return
		}
		got := n.Chain().Head()
		if n.BootSource() != node.BootRecovered || got.Hash() != head.Hash() || got.Header.StateRoot != head.Header.StateRoot {
			res.fail("recovered head %d (%s) differs from pre-close head %d", got.Number(), n.BootSource(), head.Number())
		}
		_ = n.Close()
		total, open = append(total, ms(recovered)), append(open, ms(opened))
	}
	res.set("recover_ms", median(total))
	res.set("store.open_ms", median(open))
	res.set("chain.open_ms", median(total)-median(open))
}
