package scenarios

// The micro-benchmarks of the layers the e2e workloads cross, one
// Benchmark<Family> per family with a sub-benchmark per case, named as
// the rows of the committed BENCH_*.json files were
// (stateroot/incremental-1k is BenchmarkStateRoot/incremental-1k). They
// are the microscope; claims are made on the nested bench module.
//
//	go test -run '^$' -bench 'BenchmarkMiner/' -benchmem ./internal/scenarios

import (
	"fmt"
	"testing"

	"sereth/internal/evm"
	"sereth/internal/keccak"
	"sereth/internal/statedb"
	"sereth/internal/txpool"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

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

// BenchmarkViewLatency is the client-visible view path on a 1000-tx
// pool. incremental-1k: the attached tracker absorbs a pool delta (view
// read, tail removed, view read, tail re-admitted) per iteration — O(Δ)
// maintenance instead of a per-call full recompute. fromscratch-1k: what
// a view costs without a change feed, a detached tracker filling a DAG
// with the pool snapshot per call, O(pool) per view.
func BenchmarkViewLatency(b *testing.B) {
	b.Run("incremental-1k", func(b *testing.B) {
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
	})
	b.Run("fromscratch-1k", func(b *testing.B) {
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
	})
}

// BenchmarkStateRoot commits the 1000-tx state. incremental-1k mutates
// one account and recommits: the persistent tries rehash only the
// changed paths. fromscratch-1k roots a fully-dirty fresh state —
// exactly the pre-incremental full rebuild (bar: >= 5x apart).
func BenchmarkStateRoot(b *testing.B) {
	b.Run("incremental-1k", func(b *testing.B) {
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
	})
	b.Run("fromscratch-1k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, _ := StateFixture(1000)
			b.StartTimer()
			if st.Root() == (types.Hash{}) {
				b.Fatal("zero root")
			}
		}
	})
}

// BenchmarkExec replays the n-tx conflict-sparse KV body (distinct
// senders, distinct slots — the scheduler's best case) through the
// sequential processor or the optimistic parallel one. The parallel
// cases track GOMAXPROCS on multi-core hosts and measure pure scheduler
// overhead on one core; w1 is the parallel processor's fixed overhead
// over the sequential case. Results are pinned bit-identical to
// sequential by the differential suite.
func BenchmarkExec(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("sequential-%dtx", n), benchExec(n, 0))
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("parallel-%dtx-w%d", n, workers), benchExec(n, workers))
		}
	}
}

func benchExec(n, workers int) func(*testing.B) {
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

// BenchmarkTxPool is the pool's side of the write path.
//   - admit: per-transaction admission — copy, identity hash, duplicate
//     check, memoization and change-feed notification, the per-peer cost
//     every gossiped transaction pays.
//   - admit-batch-100: one 100-tx gossip envelope under one lock
//     acquisition (ns/op is per batch).
//   - snapshot-after-admit-10k, settle-50-of-10k: SnapshotAfterAdmit and
//     SettleDeepPool on the deep pool.
func BenchmarkTxPool(b *testing.B) {
	b.Run("admit", func(b *testing.B) {
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
	})
	b.Run("admit-batch-100", func(b *testing.B) {
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
	})
	b.Run("snapshot-after-admit-10k", benchStep(SnapshotAfterAdmit))
	b.Run("settle-50-of-10k", benchStep(SettleDeepPool))
}

// BenchmarkKeccak/elision-admit-nth-peer is the Nth-peer contract:
// admitting an already-frozen gossiped instance into a fresh pool costs
// zero digests (keccak_per_op).
func BenchmarkKeccak(b *testing.B) {
	b.Run("elision-admit-nth-peer", func(b *testing.B) {
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
	})
}

// BenchmarkMiner is block assembly on the deep pool: OrderDeepPool off
// the attached tracker's dag (order-live-pool10k) and its same-run twin
// on a detached tracker (order-scratch-pool10k), and BuildDeepPool.
func BenchmarkMiner(b *testing.B) {
	b.Run("order-live-pool10k", benchStep(func() func() { return OrderDeepPool(true) }))
	b.Run("order-scratch-pool10k", benchStep(func() func() { return OrderDeepPool(false) }))
	b.Run("build-50-of-pool10k", benchStep(BuildDeepPool))
}

// interpProgram is a bytecode loop that executes exactly 100
// instructions before halting (one counter push, fourteen 7-op loop
// bodies, one STOP). The body mixes pushes, stack shuffles, arithmetic
// and a conditional jump, so the case tracks dispatch overhead rather
// than any single handler.
var interpProgram = []byte{
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

// BenchmarkEVM/interp-100op is one Call executing interpProgram through
// the jump table over pooled frames: ns/op is per program run, ~10 ns
// per executed instruction at parity.
func BenchmarkEVM(b *testing.B) {
	b.Run("interp-100op", func(b *testing.B) {
		st := statedb.New()
		st.SetCode(BenchContract, interpProgram)
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
	})
}

// BenchmarkStateDB is the state's own costs.
//   - journal-churn: the typed flat journal's per-transaction rhythm,
//     one snapshot, eight mutations across the entry kinds, one revert
//     (ns/op is per churn cycle; the mark is zero allocs in steady state).
//   - copy-20k-slots, copy-250-accounts: CopyGrownState and
//     CopyManyAccounts.
//   - read-flushed-slot: ReadFlushedSlot on StateFixture's 4-slot
//     contract and on NewGrownKVFixture's 20 000-slot one.
func BenchmarkStateDB(b *testing.B) {
	b.Run("journal-churn", func(b *testing.B) {
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
	})
	b.Run("copy-20k-slots", benchStep(CopyGrownState))
	b.Run("copy-250-accounts", benchStep(CopyManyAccounts))
	b.Run("read-flushed-slot", func(b *testing.B) {
		b.Run("4-slots", benchStep(func() func() {
			st, _ := StateFixture(4)
			return ReadFlushedSlot(st, BenchContract, 4)
		}))
		b.Run("20k-slots", benchStep(func() func() {
			return ReadFlushedSlot(NewGrownKVFixture(250, 20_000).Genesis, KVContract, 20_000)
		}))
	})
}

// BenchmarkNode/view-amv is ViewAMVOnServingNode.
func BenchmarkNode(b *testing.B) {
	b.Run("view-amv", func(b *testing.B) {
		benchStep(func() func() { return ViewAMVOnServingNode(b) })(b)
	})
}
