package scenarios

// The fixtures the package's tests and benchmarks share: pools, states,
// sealed blocks and serving nodes in the shapes the e2e workloads run,
// and the steps the allocation pins and the benchmarks both time.

import (
	"fmt"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/hms"
	"sereth/internal/miner"
	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/statedb"
	"sereth/internal/txpool"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

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
	c.ReadHeadState(func(h *types.Block, _ types.Hash, st *statedb.StateDB) { head, parent = h, st })
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
// between — the storage trie a kv-blocks chain has grown by block
// slots/250. The body's keys are among the first it wrote, so
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

// AdmissionTxs builds n distinct HMS set transactions so every admission
// pays the full derived-data memoization (identity hash + fused mark:
// two sponge finalizations per tx).
func AdmissionTxs(n int) []*types.Transaction {
	sel := types.SelectorFor("set(bytes32[3])")
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = &types.Transaction{
			Nonce:    uint64(i),
			To:       types.Address{19: 0xcc},
			GasPrice: 10,
			GasLimit: 300_000,
			Data:     types.EncodeCall(sel, types.FlagChain, types.WordFromUint64(uint64(i)), types.WordFromUint64(uint64(i+1))),
			From:     types.Address{19: 0x01},
		}
	}
	return txs
}

// SnapshotAfterAdmit is the txpool/snapshot-after-admit-10k step on the
// deep pool: admit one already-frozen set, then take the snapshot a
// miner would ask for. The admission extends the cached snapshot, so the
// step does not scale with the 10 000 residents. Every 4096th step first
// removes what the previous 4096 admitted (one rebuild: a pointer scan).
func SnapshotAfterAdmit() func() {
	pool, _ := DeepPool()
	resident := pool.Len()
	txs := AdmissionTxs(4096)
	hashes := make([]types.Hash, len(txs))
	for i, tx := range txs {
		tx.From = types.Address{17: 1} // no deep-pool sender: nonces cannot collide
		hashes[i] = tx.Memoize().Hash()
	}
	i := 0
	return func() {
		if i == len(txs) {
			pool.Remove(hashes)
			i = 0
		}
		if _, err := pool.Admit(txs[i]); err != nil {
			panic(err)
		}
		i++
		if snap, _ := pool.Snapshot(); len(snap) != resident+i {
			panic(fmt.Sprintf("snapshot of %d txs, want %d", len(snap), resident+i))
		}
	}
}

// OrderDeepPool is one block-assembly ordering of the deep pool's
// snapshot by a semantic miner (reorder window 0, as the e2e benchmark
// runs it): off the DAG the pool's feed maintains for the attached
// tracker, or — the same-run twin — on a detached tracker that fills a
// DAG with the snapshot first, as any slice other than the attached
// pool's current snapshot does. Both collect all 10 050 transactions, the
// live ones first, which no block on this pool pulls: a miner pays
// miner/build-50-of-pool10k.
func OrderDeepPool(live bool) func() {
	pool, tracker := DeepPool()
	if !live {
		tracker = NewTracker()
	}
	order := miner.NewSemanticWindow(tracker, 1, 0)
	snap, _ := pool.Snapshot()
	nonces := func(types.Address) uint64 { return 0 }
	return func() {
		if out := order.Order(snap, nonces); len(out) != len(snap) || out[49].GasPrice != 10 || out[50].GasPrice != 1 {
			panic(fmt.Sprintf("ordered %d of %d", len(out), len(snap)))
		}
	}
}

// BuildDeepPool is the miner/build-50-of-pool10k step, what a miner pays
// for a block on the deep pool: the 50 live transactions are the prefix
// and fill it, the 10 000 behind them are never ranked. Nothing is
// inserted, so every step builds the same block.
func BuildDeepPool() func() {
	pool, tracker := DeepPool()
	genesis := statedb.New()
	genesis.SetCode(BenchContract, asm.SerethContract())
	c := chain.New(chain.Config{GasLimit: 50 * 300_000}, genesis)
	m := miner.NewMiner(c, pool, miner.NewSemanticWindow(tracker, 1, 0), types.Address{0: 0xee})
	return func() {
		if block, err := m.BuildBlock(15); err != nil || len(block.Txs) != 50 || block.Txs[49].GasPrice != 10 {
			panic(fmt.Sprintf("built %v, %v", block, err))
		}
	}
}

// SettleDeepPool is the txpool/settle-50-of-10k step, what a peer pays
// when a block lands on the deep pool: the 50 live transactions leave
// through the attached tracker, past 10 000 residents Settle must not
// visit, and are admitted again, already frozen, for the next step.
func SettleDeepPool() func() {
	pool, _ := DeepPool()
	snap, _ := pool.Snapshot()
	block := snap[len(snap)-50:]
	return func() {
		pool.Settle(block, func(types.Address) uint64 { return 0 })
		if pool.Len() != len(snap)-50 {
			panic(fmt.Sprintf("%d pending after the block, want %d", pool.Len(), len(snap)-50))
		}
		pool.AdmitBatch(block)
	}
}

// CopyGrownState is the statedb/copy-20k-slots step: one Copy of a
// flushed state whose KV contract holds 20 000 slots. The copy shares
// the state's account generations and the contract's storage
// generations, so it is one allocation whatever the account and slot
// counts.
func CopyGrownState() func() {
	f := NewGrownKVFixture(250, 20_000)
	return func() {
		if f.Genesis.Copy() == nil {
			panic("no copy")
		}
	}
}

// ReadFlushedSlot is the statedb/read-flushed-slot step: one GetState of
// a contract's slot on a copy of st, which the copy's overlay misses and
// the contract's storage trie answers — what every HMS view, RAA read
// and buy pays for the Sereth contract's mark and value slots. The
// contract holds words in slots 0 to slots-1, all non-zero.
func ReadFlushedSlot(st *statedb.StateDB, contract types.Address, slots int) func() {
	cp := st.Copy() // flushes st
	i := 0
	return func() {
		if cp.GetState(contract, types.WordFromUint64(uint64(i%slots))).IsZero() {
			panic("a flushed slot reads zero")
		}
		i++
	}
}

// CopyManyAccounts is the statedb/copy-250-accounts step: one Copy of
// the post state of a 250-put block — the KV contract and the block's 250
// senders. The copy is the state alone: it shares the generations that
// hold the accounts.
func CopyManyAccounts() func() {
	f := NewParallelFixture(250)
	res, err := f.NewProcessor(0).Process(f.Genesis, f.Header, f.Txs)
	if err != nil {
		panic(fmt.Sprintf("post state of the 250-sender block: %v", err))
	}
	return func() {
		if res.Post.Copy() == nil {
			panic("no copy")
		}
	}
}

// ReplayOnGrownState is the step the replay/kv-250tx-on-20k-slots BENCH
// row timed and TestSharedStorageAllocsPinned counts: one sequential
// Process of a 250-put block on that state — the copy, the
// body, the flush that writes the block's 250 slots into the storage
// trie it shares with its parent, and the roots. kv-blocks
// does this five times a block on a contract of this size.
func ReplayOnGrownState() func() {
	f := NewGrownKVFixture(250, 20_000)
	proc := f.NewProcessor(0)
	return func() {
		if res, err := proc.Process(f.Genesis, f.Header, f.Txs); err != nil || len(res.Receipts) != len(f.Txs) {
			panic(fmt.Sprintf("replay on the grown state: %v", err))
		}
	}
}

// ViewAMVOnServingNode is the node/view-amv step: the in-process
// READ-UNCOMMITTED view read every buy starts with — the tracker's
// cached view, then mark() and get() through the EVM and RAA on the head
// state — on a mining Sereth node with 12 committed set transactions
// (one per block) and 8 more pending, whose pool does not change between
// reads.
func ViewAMVOnServingNode(tb testing.TB) func() {
	reg := wallet.NewRegistry()
	owner := wallet.NewKey("serving-owner")
	reg.Register(owner)
	genesis := statedb.New()
	genesis.SetCode(BenchContract, asm.SerethContract())
	chainCfg := chain.DefaultConfig()
	chainCfg.Registry = reg
	net := p2p.NewNetwork(p2p.Config{})
	n, err := node.New(node.Config{
		ID: 1, Mode: node.ModeSereth, Miner: node.MinerBaseline,
		Contract: BenchContract, Chain: chainCfg, Genesis: genesis,
		Network: net,
	})
	if err != nil {
		tb.Fatal(err)
	}
	prev := types.ZeroWord
	for i := uint64(0); i < 12+8; i++ {
		val := types.WordFromUint64(100 + i)
		if _, err := n.SubmitSet(owner, i, BenchContract, types.FlagHead, prev, val); err != nil {
			tb.Fatal(err)
		}
		prev = val
		if i < 12 {
			net.AdvanceTo(net.Now() + 5)
			if _, err := n.MineAndBroadcast(net.Now() + 15); err != nil {
				tb.Fatal(err)
			}
		}
		net.AdvanceTo(net.Now() + 20)
	}
	caller := types.Address{19: 0x01}
	return func() {
		if _, mark, value := n.ViewAMV(caller, BenchContract); mark.IsZero() || value.IsZero() {
			panic("view-amv: no view")
		}
	}
}
