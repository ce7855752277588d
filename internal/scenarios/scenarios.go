// Package scenarios is the one place experiments and benchmarks are
// defined: the experiment registry (experiments.go), the benchmark
// registry (bench.go) and the fixtures and η table they share (this
// file). cmd/serethsim, cmd/serethbench and the root bench harness are
// loops over it, so BENCH_<date>.json stays directly comparable with
// `go test -bench` output across PRs.
package scenarios

import (
	"fmt"
	"strings"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/hms"
	"sereth/internal/p2p"
	"sereth/internal/sim"
	"sereth/internal/statedb"
	"sereth/internal/txpool"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// NopPeer is a p2p.Handler that absorbs every delivery — the shared
// sink of the gossip benchmarks.
type NopPeer struct{}

// HandleTx implements p2p.Handler.
func (NopPeer) HandleTx(p2p.PeerID, *types.Transaction) {}

// HandleBlock implements p2p.Handler.
func (NopPeer) HandleBlock(p2p.PeerID, *types.Block) {}

// HandleBlockRequest implements p2p.Handler.
func (NopPeer) HandleBlockRequest(p2p.PeerID, uint64) {}

// EtaSeed is the fixed seed of the η benchmark rows: it matches the
// root bench harness at -benchtime 1x (seed (i+1)*101 with i = 0).
const EtaSeed = 101

// Eta is one named η scenario of the benchmark table.
type Eta struct {
	Name string
	Make func(seed int64) sim.ScenarioConfig
}

// EtaTable returns the full η scenario table: the nine Figure-2 cells,
// the sequential-history check and the four §V-C/§V-A ablation sweeps —
// the 22 scenarios whose η values must stay bit-identical across pure
// performance work. The ablation cells are the registry's own points
// (experiments.go) at the table's parameter values.
func EtaTable() []Eta {
	var out []Eta
	add := func(name string, mk func(seed int64) sim.ScenarioConfig) {
		out = append(out, Eta{Name: name, Make: mk})
	}
	for _, line := range Figure2Lines {
		short, _, _ := strings.Cut(line.Name, "_")
		for _, sets := range []int{100, 20, 5} {
			add(fmt.Sprintf("figure2/%s/sets-%d", short, sets),
				func(seed int64) sim.ScenarioConfig { return line.Make(sets, seed) })
		}
	}
	add("sequential-history", func(int64) sim.ScenarioConfig { return sim.SequentialHistoryConfig(1) })
	for _, fraction := range []float64{0, 0.5, 1} {
		add(fmt.Sprintf("ablation/participation/fraction-%d", int(fraction*100)), participationPoint(fraction).Make)
	}
	for _, latency := range []uint64{50, 1000, 5000, 15000} {
		add(fmt.Sprintf("ablation/gossip/latency-%dms", latency), gossipPoint(latency).Make)
	}
	for _, interval := range []uint64{500, 1000, 2000} {
		add(fmt.Sprintf("ablation/interval/interval-%dms", interval), intervalPoint(interval).Make)
	}
	add("ablation/extendheads/baseline", extendHeadsPoint(false).Make)
	add("ablation/extendheads/extended", extendHeadsPoint(true).Make)
	return out
}

// ScaleTable returns the population-scale benchmark rows of the
// network engine: a 50-peer full-mesh figure2 cell plus sparse-topology
// variants at the same population.
func ScaleTable() []Eta {
	var out []Eta
	for _, sc := range []struct {
		name  string
		shape sim.Shape
	}{
		{"scale/figure2-sereth/peers-50-mesh", sim.Shape{SemanticMiners: 24, BaselineMiners: 24, Clients: 2}},
		{"scale/figure2-sereth/peers-50-ring", sim.Shape{SemanticMiners: 24, BaselineMiners: 24, Clients: 2, Topology: "ring"}},
		{"scale/figure2-sereth/peers-50-dregular6", sim.Shape{SemanticMiners: 24, BaselineMiners: 24, Clients: 2, Topology: "dregular", Degree: 6}},
	} {
		out = append(out, Eta{
			Name: sc.name,
			Make: func(seed int64) sim.ScenarioConfig { return sc.shape.Apply(sim.SerethClient(20, seed)) },
		})
	}
	return out
}

// EtaRows is the η half of the BENCH table as an experiment: one point
// per EtaTable and ScaleTable row, measuring η and the network message
// count (serethbench runs it at EtaSeed).
func EtaRows() Experiment {
	var pts []Point
	for _, e := range append(EtaTable(), ScaleTable()...) {
		pts = append(pts, Point{Label: e.Name, Bench: e.Name, Make: e.Make})
	}
	return Experiment{
		Name:   "eta",
		Points: pts,
		Columns: []Column{
			{Name: "eta", Of: sim.Result.Efficiency},
			{Name: "msgs", Of: func(r sim.Result) float64 { return float64(r.MsgsSent) }},
		},
	}
}

// BenchContract is the conventional Sereth contract address used by the
// view fixtures.
var BenchContract = types.Address{19: 0xcc}

// NewTracker returns a standalone HMS tracker bound to BenchContract.
func NewTracker() *hms.Tracker {
	return hms.NewTracker(hms.Config{
		Contract:    BenchContract,
		SetSelector: types.SelectorFor("set(bytes32[3])"),
		BuySelector: types.SelectorFor("buy(bytes32[3])"),
	})
}

// StateFixture builds the shared state-commitment fixture: a world state
// shaped like n applied transactions — n funded EOAs with bumped nonces
// plus the bench contract holding n storage words. It returns the state
// and the EOA addresses (churn targets for the incremental-root rows).
func StateFixture(n int) (*statedb.StateDB, []types.Address) {
	st := statedb.New()
	addrs := make([]types.Address, n)
	for i := 0; i < n; i++ {
		var a types.Address
		a[0] = 0xaa
		a[18] = byte(i >> 8)
		a[19] = byte(i)
		st.SetNonce(a, uint64(i%7+1))
		st.AddBalance(a, uint64(1000+i))
		addrs[i] = a
	}
	st.SetCode(BenchContract, asm.SerethContract())
	for i := 0; i < n; i++ {
		st.SetState(BenchContract, types.WordFromUint64(uint64(i)), types.WordFromUint64(uint64(i+1)))
	}
	return st, addrs
}

// ReplayFixture is the shared block-validation workload: a sealed block
// of chained set transactions on a contract genesis, plus everything a
// consumer needs to spin up fresh validator chains against it.
type ReplayFixture struct {
	Registry *wallet.Registry
	Owner    *wallet.Key // the single signing key behind every body tx
	Genesis  *statedb.StateDB
	Block    *types.Block
}

// NewReplayFixture builds the n-transaction replay fixture.
func NewReplayFixture(n int) *ReplayFixture {
	reg := wallet.NewRegistry()
	owner := wallet.NewKey("replay-owner")
	reg.Register(owner)
	genesis := statedb.New()
	genesis.SetCode(BenchContract, asm.SerethContract())
	gasLimit := uint64(n+1) * 300_000
	c := chain.New(chain.Config{GasLimit: gasLimit, Registry: reg}, genesis)

	selSet := types.SelectorFor("set(bytes32[3])")
	txs := make([]*types.Transaction, n)
	prev := types.Word{}
	flag := types.FlagHead
	for i := range txs {
		v := types.WordFromUint64(uint64(i + 10))
		// Memoized like the real import path: a mined block's body holds
		// the pool's frozen instances, so importers verify cached
		// identity/signature digests instead of re-deriving them.
		txs[i] = owner.SignTx(&types.Transaction{
			Nonce:    uint64(i),
			To:       BenchContract,
			GasPrice: 10,
			GasLimit: 300_000,
			Data:     types.EncodeCall(selSet, flag, prev, v),
		}).Memoize()
		prev = types.NextMark(prev, v)
		flag = types.FlagChain
	}
	var head *types.Block
	var parent *statedb.StateDB
	c.ReadHeadState(func(h *types.Block, st *statedb.StateDB) { head, parent = h, st })
	header := &types.Header{
		ParentHash: head.Hash(),
		Number:     1,
		GasLimit:   gasLimit,
		Time:       15,
	}
	res, err := c.Process(parent, header, txs)
	if err != nil {
		panic(fmt.Sprintf("scenarios: replay fixture: %v", err))
	}
	// Like the miner, derive the tx root through the shared block so
	// every importing consumer reuses the memoized value; the state and
	// receipt roots come memoized from the processor.
	block := &types.Block{Header: header, Txs: txs}
	header.TxRoot = block.TxRoot()
	header.ReceiptRoot = res.ReceiptRoot
	header.StateRoot = res.StateRoot
	header.GasUsed = res.GasUsed
	return &ReplayFixture{
		Registry: reg,
		Owner:    owner,
		Genesis:  genesis,
		Block:    block,
	}
}

// NewChain returns a fresh validator chain at the fixture's genesis,
// optionally joined to a shared validated-execution cache.
func (f *ReplayFixture) NewChain(cache *chain.ExecCache) *chain.Chain {
	return chain.New(chain.Config{GasLimit: f.Block.Header.GasLimit, Registry: f.Registry, ExecCache: cache}, f.Genesis)
}

// ChainPool builds the shared view-latency fixture: an n-transaction
// chained set series admitted through a real pool with an attached
// incremental tracker. It returns the pool, the tracker and the tail
// transaction of the chain.
func ChainPool(n int) (*txpool.Pool, *hms.Tracker, *types.Transaction) {
	pool := txpool.New()
	tracker := NewTracker()
	tracker.Attach(pool)
	selSet := types.SelectorFor("set(bytes32[3])")
	prev := types.Word{}
	var tail *types.Transaction
	for i := 0; i < n; i++ {
		v := types.WordFromUint64(uint64(i + 1))
		flag := types.FlagChain
		if i == 0 {
			flag = types.FlagHead
		}
		tail = &types.Transaction{
			Nonce: uint64(i), To: BenchContract, GasLimit: 1,
			Data: types.EncodeCall(selSet, flag, prev, v),
		}
		if err := pool.Add(tail); err != nil {
			panic(err)
		}
		prev = types.NextMark(prev, v)
	}
	return pool, tracker, tail
}

// DeepPool builds the block-assembly fixture in the shape of the e2e
// benchmark's deep-pool workload, in a real pool with an attached
// tracker: a standing backlog of 10 000 transactions — orphan sets
// (chained off a mark no block commits) with four buys each, at gas
// price 1 — under 50 live ones at price 10 (ten sets off the committed
// zero mark, four buys each).
func DeepPool() (*txpool.Pool, *hms.Tracker) {
	pool := txpool.New()
	tracker := NewTracker()
	tracker.Attach(pool)
	selSet, selBuy := tracker.Config().SetSelector, tracker.Config().BuySelector
	fill := func(n int, price uint64, senders byte, mark, flag types.Word) {
		nonces := make(map[types.Address]uint64)
		var value types.Word
		for i := 0; i < n; i++ {
			tx := &types.Transaction{To: BenchContract, GasPrice: price, GasLimit: 300_000}
			if i%5 == 0 {
				tx.From = types.Address{18: senders}
				value = types.WordFromUint64(uint64(10 + i%90))
				tx.Data = types.EncodeCall(selSet, flag, mark, value)
				mark, flag = types.NextMark(mark, value), types.FlagChain
			} else {
				tx.From = types.Address{18: senders, 19: byte(1 + i%25)}
				tx.Data = types.EncodeCall(selBuy, types.FlagChain, mark, value)
			}
			tx.Nonce = nonces[tx.From]
			nonces[tx.From]++
			if err := pool.Add(tx); err != nil {
				panic(err)
			}
		}
	}
	fill(10_000, 1, 0xb0, types.Keccak([]byte("never-committed")).Word(), types.FlagChain)
	fill(50, 10, 0xa0, types.Word{}, types.FlagHead)
	return pool, tracker
}

// KVContract is the conventional address of the key-value store
// contract used by the conflict-sparse parallel-execution fixtures.
var KVContract = types.Address{19: 0xd0}

// ParallelFixture is the conflict-sparse replay workload for the
// optimistic parallel processor: n distinct registered senders, each
// issuing one put on its own key of the KV store contract. No two
// transactions touch the same account or storage slot (beyond the
// shared code read), so every speculation validates and the workload
// measures the scheduler's best case — the complement of the
// maximally conflict-dense chained-set ReplayFixture.
type ParallelFixture struct {
	Registry *wallet.Registry
	Genesis  *statedb.StateDB
	Header   *types.Header
	Txs      []*types.Transaction
	GasLimit uint64
}

// NewParallelFixture builds the n-transaction conflict-sparse fixture.
func NewParallelFixture(n int) *ParallelFixture {
	reg := wallet.NewRegistry()
	genesis := statedb.New()
	genesis.SetCode(KVContract, asm.KVStoreContract())
	gasLimit := uint64(n+1) * 100_000
	txs := make([]*types.Transaction, n)
	for i := range txs {
		key := wallet.NewKey(fmt.Sprintf("par-sender-%d", i))
		reg.Register(key)
		// Memoized like the real import path (see NewReplayFixture).
		txs[i] = key.SignTx(&types.Transaction{
			Nonce:    0,
			To:       KVContract,
			GasPrice: 10,
			GasLimit: 100_000,
			Data: types.EncodeCall(asm.SelPut,
				types.WordFromUint64(uint64(i)),
				types.WordFromUint64(uint64(i+1))),
		}).Memoize()
	}
	return &ParallelFixture{
		Registry: reg,
		Genesis:  genesis,
		Header:   &types.Header{Number: 1, GasLimit: gasLimit, Time: 15},
		Txs:      txs,
		GasLimit: gasLimit,
	}
}

// NewGrownKVFixture is NewParallelFixture(n) on a contract that already
// holds slots words, written 250 a block with the state flushed in
// between — the storage a kv-blocks chain has grown by block slots/250,
// generations and all. The body's keys are among the first it wrote, so
// the replay overwrites. What a Copy of, and a block on, a large state
// cost is measured on it.
func NewGrownKVFixture(n, slots int) *ParallelFixture {
	f := NewParallelFixture(n)
	for i := 0; i < slots; i++ {
		f.Genesis.SetState(KVContract, types.WordFromUint64(uint64(i)), types.WordFromUint64(uint64(i)+7))
		if i%250 == 249 {
			f.Genesis.DiscardJournal()
			f.Genesis.Root()
		}
	}
	f.Genesis.DiscardJournal()
	f.Genesis.Root()
	return f
}

// NewParallelFixtureWithReaders is NewParallelFixture plus readers
// no-op reader transactions interleaved through the body: each is an
// unknown-selector call on the KV contract from its own fresh sender,
// so it executes to a successful STOP whose only state write is the
// sender's nonce bump. This is the shape of the serving tier's read
// traffic when routed through transactions, and it drives the commit
// loop's nonce-only merge fast path (ParallelStats.NonceOnlyMerges).
func NewParallelFixtureWithReaders(n, readers int) *ParallelFixture {
	f := NewParallelFixture(n)
	peek := types.SelectorFor("peek()") // not in the KV dispatch table
	for i := 0; i < readers; i++ {
		key := wallet.NewKey(fmt.Sprintf("par-reader-%d", i))
		f.Registry.Register(key)
		tx := key.SignTx(&types.Transaction{
			Nonce:    0,
			To:       KVContract,
			GasPrice: 10,
			GasLimit: 100_000,
			Data:     types.EncodeCall(peek),
		}).Memoize()
		// Interleave so readers and writers share the speculation pool.
		at := (i * 2) % (len(f.Txs) + 1)
		f.Txs = append(f.Txs[:at], append([]*types.Transaction{tx}, f.Txs[at:]...)...)
	}
	f.GasLimit = uint64(len(f.Txs)+1) * 100_000
	f.Header.GasLimit = f.GasLimit
	return f
}

// NewProcessor returns a processor over the fixture's configuration:
// sequential when workers == 0, parallel with that worker count
// otherwise (threshold 1, so every body takes the parallel path).
func (f *ParallelFixture) NewProcessor(workers int) interface {
	Process(*statedb.StateDB, *types.Header, []*types.Transaction) (*chain.ExecResult, error)
} {
	cfg := chain.Config{GasLimit: f.GasLimit, Registry: f.Registry}
	if workers == 0 {
		return chain.NewProcessor(cfg)
	}
	cfg.Parallel = true
	cfg.ParallelWorkers = workers
	cfg.ParallelThreshold = 1
	return chain.NewParallelProcessor(cfg)
}
