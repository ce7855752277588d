// The benchmark registry: every micro-benchmark row of BENCH_<date>.json
// is one {row name, func(*testing.B)} entry of Benches. The root bench
// harness runs them as sub-benchmarks and cmd/serethbench through
// testing.Benchmark, so a body exists once and the two cannot drift.
// Columns beyond ns/op, B/op and allocs/op travel as b.ReportMetric
// units named after their BENCH keys.
package scenarios

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/evm"
	"sereth/internal/keccak"
	"sereth/internal/metrics"
	"sereth/internal/miner"
	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/rpc"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/txpool"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// Bench is one micro-benchmark row.
type Bench struct {
	Name string
	Run  func(*testing.B)
}

// BenchAliases maps a row to a second name serethbench records the same
// measurement under: the full replay was also the elision-era keccak row,
// and BENCH files stay comparable by name.
var BenchAliases = map[string]string{"replay/insert-100tx-full": "keccak/elision-replay-100tx"}

// Benches returns the micro-benchmark rows in BENCH order.
func Benches() []Bench {
	out := []Bench{
		{"gossip/broadcast-mesh50", benchBroadcastMesh50},
		{"view-latency/incremental-1k", benchViewLatency},
		{"view-latency/fromscratch-1k", benchViewFromScratch},
		{"stateroot/incremental-1k", benchStateRootIncremental},
		{"stateroot/fromscratch-1k", benchStateRootFromScratch},
		{"replay/insert-100tx-full", benchReplay(false)},
		{"replay/insert-100tx-cached", benchReplay(true)},
	}
	for _, n := range []int{100, 1000} {
		out = append(out, Bench{fmt.Sprintf("exec/sequential-%dtx", n), BenchParallelReplay(n, 0)})
		for _, workers := range []int{2, 4, 8} {
			out = append(out, Bench{fmt.Sprintf("exec/parallel-%dtx-w%d", n, workers), BenchParallelReplay(n, workers)})
		}
	}
	out = append(out,
		Bench{"keccak/sum256-64B", benchKeccak(64)},
		Bench{"keccak/sum256-1KB", benchKeccak(1024)},
		Bench{"txpool/admit", benchTxAdmission},
		Bench{"txpool/admit-batch-100", benchAdmitBatch100},
		Bench{"keccak/elision-admit-nth-peer", benchAdmitNthPeer},
		Bench{"txpool/snapshot-after-admit-10k", benchStep(SnapshotAfterAdmit)},
		Bench{"miner/order-live-pool10k", benchStep(func() func() { return OrderDeepPool(true) })},
		Bench{"miner/order-scratch-pool10k", benchStep(func() func() { return OrderDeepPool(false) })},
		Bench{"miner/build-50-of-pool10k", benchStep(BuildDeepPool)},
		Bench{"txpool/settle-50-of-10k", benchStep(SettleDeepPool)},
		Bench{"evm/interp-100op", benchInterp100Op},
		Bench{"statedb/journal-churn", benchJournalChurn},
		Bench{"statedb/copy-20k-slots", benchStep(CopyGrownState)},
		Bench{"statedb/copy-250-accounts", benchStep(CopyManyAccounts)},
		Bench{"replay/kv-250tx-on-20k-slots", benchStep(ReplayOnGrownState)},
		Bench{"node/view-amv", func(b *testing.B) { benchStep(func() func() { return ViewAMVOnServingNode(b) })(b) }},
		Bench{"store/filestore-write-100rec", benchFileStoreWrite},
		Bench{"store/filestore-compact-1k-live", benchFileStoreCompact},
	)
	for _, m := range []struct {
		name string
		call func(*rpc.Client) error
	}{
		{"sereth_view", func(c *rpc.Client) error { _, err := c.View(); return err }},
		{"eth_blockNumber", func(c *rpc.Client) error { _, err := c.BlockNumber(); return err }},
	} {
		for _, clients := range []int{1, 8, 64} {
			out = append(out, Bench{fmt.Sprintf("serving/%s-c%d", m.name, clients), benchServing(clients, m.call)})
		}
	}
	return append(out,
		Bench{fmt.Sprintf("serving/restart-recovery-%dblocks", servingBlocks), benchRestartRecovery},
		Bench{"serving/snapshot-bootstrap", benchSnapshotBootstrap},
	)
}

// benchBroadcastMesh50 is the gossip cost: one transaction broadcast to
// a 50-peer full mesh, delivered within the iteration. The batched
// engine enqueues ONE shared payload per gossip, so allocs/op is the
// acceptance metric; msgs_per_sec is delivery throughput (49 per op).
func benchBroadcastMesh50(b *testing.B) {
	net := p2p.NewNetwork(p2p.Config{LatencyMs: 1})
	for id := 1; id <= 50; id++ {
		net.Join(p2p.PeerID(id), NopPeer{})
	}
	tx := (&types.Transaction{Nonce: 1, GasLimit: 1, Data: []byte{1}}).Memoize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.BroadcastTx(1, tx)
		net.AdvanceTo(uint64(i + 1))
	}
	b.StopTimer()
	sent, _ := net.Stats()
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "msgs_per_sec")
}

// benchViewLatency is the client-visible view path on a 1000-tx pool:
// the attached tracker absorbs a pool delta (view read, tail
// removed, view read, tail re-admitted) per iteration — O(Δ)
// maintenance instead of a per-call full recompute.
func benchViewLatency(b *testing.B) {
	pool, tracker, tail := ChainPool(1000)
	tailHash := []types.Hash{tail.Hash()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if view, ok := tracker.View(); !ok || view.Depth != 1000 {
			b.Fatalf("depth = %d", view.Depth)
		}
		pool.Remove(tailHash)
		if view, _ := tracker.View(); view.Depth != 999 {
			b.Fatalf("churn depth = %d", view.Depth)
		}
		if err := pool.Add(tail); err != nil {
			b.Fatal(err)
		}
	}
}

// benchViewFromScratch is what a view costs without a change feed: a
// detached tracker fills a DAG with the pool snapshot per call, O(pool)
// per view.
func benchViewFromScratch(b *testing.B) {
	pool, _, _ := ChainPool(1000)
	tracker := NewTracker()
	snapshot, _ := pool.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if view := tracker.ViewOf(snapshot); view.Depth != 1000 {
			b.Fatalf("depth = %d", view.Depth)
		}
	}
}

// benchStateRootIncremental mutates one account of the 1000-tx state
// and recommits: the persistent tries rehash only the changed paths.
// Paired with the fromscratch row (bar: >= 5x apart).
func benchStateRootIncremental(b *testing.B) {
	st, addrs := StateFixture(1000)
	st.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.SetNonce(addrs[i%len(addrs)], uint64(i+100))
		if st.Root() == (types.Hash{}) {
			b.Fatal("zero root")
		}
	}
}

// benchStateRootFromScratch roots a fully-dirty fresh 1000-tx state —
// exactly the pre-incremental full rebuild.
func benchStateRootFromScratch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, _ := StateFixture(1000)
		b.StartTimer()
		if st.Root() == (types.Hash{}) {
			b.Fatal("zero root")
		}
	}
}

// benchReplay is a fresh peer importing the sealed 100-tx golden block:
// by full replay (§II-D), or — cached — by adopting the shared validated
// execution and verifying by root comparison, the import cost of every
// peer of an N-peer process but the block's miner. The shared instances are
// warm (signature verdicts cached, the steady state of a gossiped
// body); keccak_per_op is the digests one import costs.
func benchReplay(cached bool) func(*testing.B) {
	return func(b *testing.B) {
		fixture := NewReplayFixture(100)
		var cache *chain.ExecCache
		if cached {
			cache = chain.NewExecCache(0)
		}
		if _, err := fixture.NewChain(cache).InsertBlock(fixture.Block); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var digests uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := fixture.NewChain(cache)
			before := keccak.Invocations()
			b.StartTimer()
			if _, err := c.InsertBlock(fixture.Block); err != nil {
				b.Fatal(err)
			}
			digests += keccak.Invocations() - before
		}
		b.ReportMetric(float64(digests)/float64(b.N), "keccak_per_op")
	}
}

// BenchParallelReplay replays the n-tx conflict-sparse KV body (distinct
// senders, distinct slots — the scheduler's best case) through the
// sequential oracle (workers 0) or the optimistic parallel processor.
// Parallel rows track GOMAXPROCS on multi-core hosts and measure pure
// scheduler overhead on one core; results are pinned bit-identical to
// sequential by the differential suite.
func BenchParallelReplay(n, workers int) func(*testing.B) {
	return func(b *testing.B) {
		fixture := NewParallelFixture(n)
		proc := fixture.NewProcessor(workers)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := proc.Process(fixture.Genesis, fixture.Header, fixture.Txs)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Receipts) != n {
				b.Fatalf("receipts = %d", len(res.Receipts))
			}
		}
	}
}

// benchKeccak is the one-shot Sum256 sponge on an n-byte input.
func benchKeccak(n int) func(*testing.B) {
	return func(b *testing.B) {
		in := bytes.Repeat([]byte{0x3c}, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			keccak.Sum256(in)
		}
	}
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

// benchTxAdmission is per-transaction pool admission: copy, identity
// hash, duplicate check, memoization and change-feed notification —
// the per-peer cost every gossiped transaction pays.
func benchTxAdmission(b *testing.B) {
	const cycle = 4096
	txs := AdmissionTxs(cycle)
	b.ReportAllocs()
	b.ResetTimer()
	var pool *txpool.Pool
	for i := 0; i < b.N; i++ {
		if i%cycle == 0 {
			b.StopTimer()
			pool = txpool.New()
			b.StartTimer()
		}
		if _, err := pool.Admit(txs[i%cycle]); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAdmitBatch100 admits one 100-tx gossip envelope under one lock
// acquisition (ns/op is per batch).
func benchAdmitBatch100(b *testing.B) {
	const batch = 100
	txs := AdmissionTxs(batch * 41)
	b.ReportAllocs()
	b.ResetTimer()
	var pool *txpool.Pool
	for i := 0; i < b.N; i++ {
		start := (i * batch) % len(txs)
		if start == 0 {
			b.StopTimer()
			pool = txpool.New()
			b.StartTimer()
		}
		admitted, errs := pool.AdmitBatch(txs[start : start+batch])
		for j, tx := range admitted {
			if tx == nil {
				b.Fatal(errs[j])
			}
		}
	}
}

// benchStep times step, which build sets up outside the timer.
func benchStep(build func() (step func())) func(*testing.B) {
	return func(b *testing.B) {
		step := build()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	}
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

// benchAdmitNthPeer is the Nth-peer contract: admitting an
// already-frozen gossiped instance into a fresh pool costs zero digests
// (keccak_per_op).
func benchAdmitNthPeer(b *testing.B) {
	frozen := wallet.NewKey("bench-elision-admit").SignTx(&types.Transaction{
		To:       types.Address{19: 0x42},
		GasPrice: 10,
		GasLimit: 300_000,
		Data: types.EncodeCall(types.SelectorFor("set(bytes32[3])"),
			types.FlagHead, types.Word{}, types.WordFromUint64(7)),
	}).Memoize()
	pools := make([]*txpool.Pool, b.N)
	for i := range pools {
		pools[i] = txpool.New()
	}
	b.ReportAllocs()
	before := keccak.Invocations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pools[i].Admit(frozen); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(keccak.Invocations()-before)/float64(b.N), "keccak_per_op")
}

// InterpProgram returns a bytecode loop that executes exactly 100
// instructions before halting (one counter push, fourteen 7-op loop
// bodies, one STOP). The body mixes pushes, stack shuffles, arithmetic
// and a conditional jump, so the row tracks dispatch overhead rather
// than any single handler.
func InterpProgram() []byte {
	return []byte{
		0x60, 14, // PUSH1 14        counter
		0x5b,    // JUMPDEST  (pc=2)
		0x60, 1, // PUSH1 1
		0x90,    // SWAP1
		0x03,    // SUB            counter-1
		0x80,    // DUP1
		0x60, 2, // PUSH1 2
		0x57, // JUMPI          loop while counter != 0
		0x00, // STOP
	}
}

// benchInterp100Op is one Call executing the 100-instruction
// InterpProgram through the jump table over pooled frames: ns/op is per
// program run, ~10 ns per executed instruction at parity.
func benchInterp100Op(b *testing.B) {
	st := statedb.New()
	st.SetCode(BenchContract, InterpProgram())
	machine := evm.New(st, evm.BlockContext{Number: 1, Time: 15})
	ctx := evm.CallContext{
		Caller:   types.Address{19: 0x01},
		Contract: BenchContract,
		Gas:      100_000,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := machine.Call(ctx); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// benchJournalChurn is the typed flat journal's per-transaction rhythm:
// one snapshot, eight mutations across the entry kinds, one revert
// (ns/op is per churn cycle; the mark is zero allocs in steady state).
func benchJournalChurn(b *testing.B) {
	st, addrs := StateFixture(16)
	st.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := uint64(i)
		a := addrs[i%len(addrs)]
		snap := st.Snapshot()
		st.SetNonce(a, n)
		st.AddBalance(a, 7)
		if !st.SubBalance(a, 3) {
			b.Fatal("underfunded fixture account")
		}
		for k := 0; k < 5; k++ {
			st.SetState(BenchContract, types.WordFromUint64(uint64(k)), types.WordFromUint64(n+uint64(k)))
		}
		st.RevertToSnapshot(snap)
	}
}

// CopyGrownState is the statedb/copy-20k-slots step: one Copy of a
// flushed state whose KV contract holds 20 000 slots. The copy shares
// the contract's storage generations, so it costs its accounts — five
// allocations — whatever the slot count.
func CopyGrownState() func() {
	f := NewGrownKVFixture(250, 20_000)
	return func() {
		if f.Genesis.Copy() == nil {
			panic("no copy")
		}
	}
}

// CopyManyAccounts is the statedb/copy-250-accounts step: one Copy of
// the post state of a 250-put block — the KV contract and the block's 250
// senders. The copy is the state, its account map, one slab of account
// structs and one of storage-trie handles (the contract's: a plain
// account owns no trie), whatever the account count.
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

// ReplayOnGrownState is the replay/kv-250tx-on-20k-slots step: one
// sequential Process of a 250-put block on that state — the copy, the
// body, the flush that seals the block's 250 slots into a generation
// over the 20 000 it shares with its parent, and the roots. kv-blocks
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

// openBenchStore opens a FileStore in a fresh temp datadir with
// automatic compaction off, so only explicit calls compact.
func openBenchStore(b *testing.B) *store.FileStore {
	s, err := store.OpenFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Close() })
	s.CompactMinBytes = 0
	return s
}

// benchFileStoreWrite is the steady-state batch append path of the
// persistent log — the batch is the bytes written, so it allocates
// nothing.
func benchFileStoreWrite(b *testing.B) {
	s := openBenchStore(b)
	batch := &store.Batch{}
	for i := 0; i < 100; i++ {
		batch.Put([]byte(fmt.Sprintf("key-%03d", i)), bytes.Repeat([]byte{byte(i)}, 64))
	}
	if err := s.Write(batch); err != nil { // index the keys
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFileStoreCompact is a full log rewrite over a store where dead
// bytes dominate: 1000 keys overwritten ten times each, so compaction
// drops ~90% of the log.
func benchFileStoreCompact(b *testing.B) {
	val := bytes.Repeat([]byte{0xab}, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := openBenchStore(b)
		for round := 0; round < 10; round++ {
			batch := &store.Batch{}
			for k := 0; k < 1000; k++ {
				batch.Put([]byte(fmt.Sprintf("key-%04d", k)), val)
			}
			if err := s.Write(batch); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		stats, err := s.Compact()
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if stats.Records != 1000 || stats.BytesAfter >= stats.BytesBefore {
			b.Fatalf("compact stats %+v", stats)
		}
		_ = s.Close() // only read since the compaction; Cleanup's second Close is a no-op
	}
}

// servingBlocks / servingPending size the serving fixture: a chain deep
// enough that recovery and bootstrap move real state, and a pending
// series for sereth_view to walk.
const (
	servingBlocks  = 12
	servingPending = 8
)

// servingNode builds a mining Sereth node with servingBlocks committed
// set transactions (one per block) and servingPending still in the
// pool, optionally backed by kv. It returns the node and the chain
// configuration it runs on (for reopening the same store).
func servingNode(b testing.TB, kv store.Store) (*node.Node, chain.Config) {
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
		Network: net, Store: kv,
	})
	if err != nil {
		b.Fatal(err)
	}
	prev := types.ZeroWord
	for i := uint64(0); i < servingBlocks+servingPending; i++ {
		val := types.WordFromUint64(100 + i)
		if _, err := n.SubmitSet(owner, i, BenchContract, types.FlagHead, prev, val); err != nil {
			b.Fatal(err)
		}
		prev = val
		if i < servingBlocks {
			net.AdvanceTo(net.Now() + 5)
			if _, err := n.MineAndBroadcast(net.Now() + 15); err != nil {
				b.Fatal(err)
			}
		}
		net.AdvanceTo(net.Now() + 20)
	}
	return n, chainCfg
}

// ViewAMVOnServingNode is the node/view-amv step: the in-process
// READ-UNCOMMITTED view read every buy starts with — the tracker's
// cached view, then mark() and get() through the EVM and RAA on the head
// state — on the serving node, whose pool does not change between reads.
func ViewAMVOnServingNode(tb testing.TB) func() {
	n, _ := servingNode(tb, nil)
	caller := types.Address{19: 0x01}
	return func() {
		if _, mark, value := n.ViewAMV(caller, BenchContract); mark.IsZero() || value.IsZero() {
			panic("view-amv: no view")
		}
	}
}

// benchServing hammers one JSON-RPC read from `clients` concurrent
// callers, each with its own connection: ns/op is wall time per
// request, reqs_per_sec the sustained rate, lat_* the per-request
// latency percentiles. sereth_view is the READ-UNCOMMITTED product;
// eth_blockNumber bounds the transport floor.
func benchServing(clients int, call func(*rpc.Client) error) func(*testing.B) {
	return func(b *testing.B) {
		n, _ := servingNode(b, nil)
		srv := httptest.NewServer(rpc.NewServer(n, BenchContract))
		defer srv.Close()
		lats := make([]float64, b.N)
		var next atomic.Int64
		var wg sync.WaitGroup
		b.ResetTimer()
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := rpc.NewClient(srv.URL)
				defer c.Close()
				for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
					t0 := time.Now()
					if err := call(c); err != nil {
						b.Error(err)
						return
					}
					lats[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reqs_per_sec")
		b.ReportMetric(metrics.Percentile(lats, 0.50), "lat_p50_ms")
		b.ReportMetric(metrics.Percentile(lats, 0.90), "lat_p90_ms")
		b.ReportMetric(metrics.Percentile(lats, 0.99), "lat_p99_ms")
	}
}

// benchRestartRecovery reopens a node's datadir: chain.Open recovers
// the head state from the store without replaying history.
func benchRestartRecovery(b *testing.B) {
	kv := openBenchStore(b)
	_, chainCfg := servingNode(b, kv)
	chainCfg.Store = kv
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := chain.Open(chainCfg, kv)
		if err != nil {
			b.Fatal(err)
		}
		if c.Height() != servingBlocks {
			b.Fatalf("recovered height %d", c.Height())
		}
	}
}

// benchSnapshotBootstrap brings a fresh peer up from a serving peer's
// exported snapshot: the log is replayed into an index, the head state
// verified record by record, and the chain opened over it.
func benchSnapshotBootstrap(b *testing.B) {
	stored, chainCfg := servingNode(b, openBenchStore(b))
	dir := b.TempDir()
	snap, err := store.OpenFile(dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := stored.Chain().Export(snap); err != nil {
		b.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, store.FileName))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := store.OpenFile(dir)
		if err != nil {
			b.Fatal(err)
		}
		c, err := chain.Open(chainCfg, snap)
		if err != nil {
			b.Fatal(err)
		}
		if c.Height() != servingBlocks {
			b.Fatalf("bootstrapped height %d", c.Height())
		}
		_ = snap.Close()
	}
	b.ReportMetric(float64(info.Size()), "snapshot_bytes")
}
