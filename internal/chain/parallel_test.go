package chain

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

var kvAddr = types.Address{19: 0xd0}

// diffBody is one generated differential workload: a genesis, a
// registry, and a body to replay through both processors.
type diffBody struct {
	reg      *wallet.Registry
	genesis  *statedb.StateDB
	header   *types.Header
	txs      []*types.Transaction
	gasLimit uint64
}

// processors returns the sequential oracle and the parallel processor
// (threshold 1, so every body takes the speculative path) over the same
// configuration.
func (d *diffBody) processors(workers int) (*Processor, *ParallelProcessor) {
	cfg := Config{GasLimit: d.gasLimit, Registry: d.reg}
	seq := NewProcessor(cfg)
	cfg.Parallel = true
	cfg.ParallelWorkers = workers
	cfg.ParallelThreshold = 1
	return seq, NewParallelProcessor(cfg)
}

// requireIdentical replays the body through both processors and demands
// byte-identical outcomes: same error (or none), same gas, same state
// and receipt roots, and equal receipts (status, gas and return value,
// in body order).
func requireIdentical(t *testing.T, d *diffBody, workers int) (*ExecResult, *ParallelProcessor) {
	t.Helper()
	seq, par := d.processors(workers)
	seqRes, seqErr := seq.Process(d.genesis, d.header, d.txs)
	parRes, parErr := par.Process(d.genesis, d.header, d.txs)
	if (seqErr == nil) != (parErr == nil) {
		t.Fatalf("error divergence: sequential %v, parallel %v", seqErr, parErr)
	}
	if seqErr != nil {
		if seqErr.Error() != parErr.Error() {
			t.Fatalf("error text divergence:\n  sequential: %v\n  parallel:   %v", seqErr, parErr)
		}
		return nil, par
	}
	if seqRes.GasUsed != parRes.GasUsed {
		t.Fatalf("gas divergence: sequential %d, parallel %d", seqRes.GasUsed, parRes.GasUsed)
	}
	if seqRes.StateRoot != parRes.StateRoot {
		t.Fatalf("state root divergence: sequential %s, parallel %s",
			seqRes.StateRoot.Hex(), parRes.StateRoot.Hex())
	}
	if seqRes.ReceiptRoot != parRes.ReceiptRoot {
		t.Fatalf("receipt root divergence: sequential %s, parallel %s",
			seqRes.ReceiptRoot.Hex(), parRes.ReceiptRoot.Hex())
	}
	if len(seqRes.Receipts) != len(parRes.Receipts) {
		t.Fatalf("receipt count divergence: %d vs %d", len(seqRes.Receipts), len(parRes.Receipts))
	}
	for i := range seqRes.Receipts {
		if seqRes.Receipts[i] != parRes.Receipts[i] {
			t.Fatalf("receipt %d divergence:\n  sequential: status=%v gas=%d\n  parallel:   status=%v gas=%d",
				i, seqRes.Receipts[i].Status, seqRes.Receipts[i].GasUsed,
				parRes.Receipts[i].Status, parRes.Receipts[i].GasUsed)
		}
	}
	// The post states must agree beyond the root: spot-check account
	// surfaces the root could theoretically mask.
	for _, addr := range seqRes.Post.Accounts() {
		if seqRes.Post.GetNonce(addr) != parRes.Post.GetNonce(addr) ||
			seqRes.Post.GetBalance(addr) != parRes.Post.GetBalance(addr) {
			t.Fatalf("post-state divergence at %s", addr.Hex())
		}
	}
	return parRes, par
}

// TestProcessPostHoldsNoJournal: a post state is retained for as long as
// the chain (chain.posts, the ExecCache), so it must not carry the
// body-sized undo reservation Process made for it. Checked on both
// processors; the conflict-dense body takes the parallel processor
// through its journaled serial lane.
func TestProcessPostHoldsNoJournal(t *testing.T) {
	for _, d := range []*diffBody{sparseBody(40), chainedBody(40)} {
		seq, par := d.processors(4)
		for name, process := range map[string]func(*statedb.StateDB, *types.Header, []*types.Transaction) (*ExecResult, error){
			"sequential": seq.Process, "parallel": par.Process,
		} {
			res, err := process(d.genesis, d.header, d.txs)
			if err != nil {
				t.Fatal(err)
			}
			if n := reflect.ValueOf(res.Post).Elem().FieldByName("journal").Cap(); n != 0 {
				t.Errorf("%s: post state keeps a journal of capacity %d", name, n)
			}
		}
	}
}

// sparseBody builds a conflict-free workload: n distinct senders each
// writing a distinct key of the KV store contract.
func sparseBody(n int) *diffBody {
	reg := wallet.NewRegistry()
	genesis := statedb.New()
	genesis.SetCode(kvAddr, asm.KVStoreContract())
	gasLimit := uint64(n+1) * 100_000
	txs := make([]*types.Transaction, n)
	for i := range txs {
		key := wallet.NewKey(fmt.Sprintf("sparse-%d", i))
		reg.Register(key)
		txs[i] = key.SignTx(&types.Transaction{
			Nonce:    0,
			To:       kvAddr,
			GasPrice: 10,
			GasLimit: 100_000,
			Data: types.EncodeCall(asm.SelPut,
				types.WordFromUint64(uint64(i)),
				types.WordFromUint64(uint64(i+1))),
		}).Memoize()
	}
	return &diffBody{
		reg: reg, genesis: genesis, txs: txs, gasLimit: gasLimit,
		header: &types.Header{Number: 1, GasLimit: gasLimit, Time: 15},
	}
}

// chainedBody builds the maximally conflict-dense workload: one sender,
// every set chained on the previous mark (the ReplayFixture shape) —
// every speculation past index 0 must fail validation and re-run.
func chainedBody(n int) *diffBody {
	reg := wallet.NewRegistry()
	owner := wallet.NewKey("chained-owner")
	reg.Register(owner)
	genesis := statedb.New()
	genesis.SetCode(contractAddr, asm.SerethContract())
	gasLimit := uint64(n+1) * 300_000
	txs := make([]*types.Transaction, n)
	prev := types.Word{}
	flag := types.FlagHead
	for i := range txs {
		v := types.WordFromUint64(uint64(i + 10))
		txs[i] = owner.SignTx(&types.Transaction{
			Nonce:    uint64(i),
			To:       contractAddr,
			GasPrice: 10,
			GasLimit: 300_000,
			Data:     types.EncodeCall(asm.SelSet, flag, prev, v),
		}).Memoize()
		prev = types.NextMark(prev, v)
		flag = types.FlagChain
	}
	return &diffBody{
		reg: reg, genesis: genesis, txs: txs, gasLimit: gasLimit,
		header: &types.Header{Number: 1, GasLimit: gasLimit, Time: 15},
	}
}

// randomBody builds a seeded conflict-dense workload mixing every
// transaction kind at conflict boundaries: chained sets (all funneling
// through the contract's mark slot), stale-mark sets (failed no-ops),
// valid and stale buys, same-slot KV puts, value transfers over a small
// account set (fan-in), insufficient-funds transfers, and same-sender
// nonce chains (few senders, many txs).
func randomBody(seed int64, n int) *diffBody {
	r := rand.New(rand.NewSource(seed))
	reg := wallet.NewRegistry()
	nSenders := 2 + r.Intn(4)
	keys := make([]*wallet.Key, nSenders)
	genesis := statedb.New()
	genesis.SetCode(contractAddr, asm.SerethContract())
	genesis.SetCode(kvAddr, asm.KVStoreContract())
	for i := range keys {
		keys[i] = wallet.NewKey(fmt.Sprintf("rand-%d-%d", seed, i))
		reg.Register(keys[i])
		genesis.AddBalance(keys[i].Address(), uint64(r.Intn(200)))
	}

	gasLimit := uint64(n+1) * 300_000
	txs := make([]*types.Transaction, 0, n)
	nonces := make(map[types.Address]uint64)
	mark := types.Word{}
	value := types.Word{}
	flag := types.FlagHead
	for len(txs) < n {
		key := keys[r.Intn(nSenders)]
		from := key.Address()
		tx := &types.Transaction{
			Nonce:    nonces[from],
			GasPrice: 10,
			GasLimit: 300_000,
		}
		switch r.Intn(8) {
		case 0, 1: // chained set: succeeds, advances the mark
			v := types.WordFromUint64(uint64(r.Intn(1000) + 10))
			tx.To = contractAddr
			tx.Data = types.EncodeCall(asm.SelSet, flag, mark, v)
			mark = types.NextMark(mark, v)
			value = v
			flag = types.FlagChain
		case 2: // stale-mark set: contract-rejected no-op (Failed)
			tx.To = contractAddr
			tx.Data = types.EncodeCall(asm.SelSet, flag,
				types.WordFromUint64(uint64(r.Intn(100)+100_000)),
				types.WordFromUint64(uint64(r.Intn(100))))
		case 3: // buy at the current mark/value (succeeds unless pre-genesis)
			tx.To = contractAddr
			tx.Data = types.EncodeCall(asm.SelBuy, flag, mark, value)
		case 4: // stale buy: Failed no-op
			tx.To = contractAddr
			tx.Data = types.EncodeCall(asm.SelBuy, flag,
				types.WordFromUint64(uint64(r.Intn(100)+200_000)), value)
		case 5: // same-slot KV puts: write conflicts across senders
			tx.To = kvAddr
			tx.Data = types.EncodeCall(asm.SelPut,
				types.WordFromUint64(uint64(r.Intn(3))),
				types.WordFromUint64(uint64(r.Intn(1000))))
		case 6: // value transfer fan-in over the small account set
			tx.To = keys[r.Intn(nSenders)].Address()
			tx.Value = uint64(r.Intn(40))
		case 7: // transfer that may exceed the balance (Failed, no revert)
			tx.To = keys[r.Intn(nSenders)].Address()
			tx.Value = uint64(r.Intn(100_000) + 1)
		}
		nonces[from]++
		txs = append(txs, key.SignTx(tx).Memoize())
	}
	return &diffBody{
		reg: reg, genesis: genesis, txs: txs, gasLimit: gasLimit,
		header: &types.Header{Number: 1, GasLimit: gasLimit, Time: 15},
	}
}

func TestParallelMatchesSequentialSparse(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		res, par := requireIdentical(t, sparseBody(96), workers)
		if res == nil {
			t.Fatal("sparse body errored")
		}
		stats := par.Stats()
		if stats.Reruns != 0 {
			t.Errorf("workers=%d: conflict-free body re-ran %d txs", workers, stats.Reruns)
		}
		if stats.Merged != 96 {
			t.Errorf("workers=%d: merged %d of 96", workers, stats.Merged)
		}
	}
}

func TestParallelMatchesSequentialConflictDense(t *testing.T) {
	res, par := requireIdentical(t, chainedBody(64), 4)
	if res == nil {
		t.Fatal("chained body errored")
	}
	for i, r := range res.Receipts {
		if r.Status != types.StatusSucceeded {
			t.Errorf("chained set %d failed", i)
		}
	}
	// Every tx past index 0 reads the mark its predecessor wrote — the
	// scheduler must detect the conflict and re-run, not merge stale
	// speculation.
	if stats := par.Stats(); stats.Reruns == 0 {
		t.Error("conflict-dense chain merged every speculation — validation is not detecting conflicts")
	}
}

func TestParallelSameSenderNonceChain(t *testing.T) {
	// chainedBody is also a single-sender nonce chain; this variant uses
	// plain transfers so the conflict comes from the nonce alone.
	reg := wallet.NewRegistry()
	owner := wallet.NewKey("nonce-owner")
	reg.Register(owner)
	genesis := statedb.New()
	genesis.AddBalance(owner.Address(), 1000)
	sink := types.Address{19: 0x5e}
	n := 40
	gasLimit := uint64(n+1) * 100_000
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = owner.SignTx(&types.Transaction{
			Nonce: uint64(i), To: sink, Value: 1, GasPrice: 10, GasLimit: 100_000,
		}).Memoize()
	}
	d := &diffBody{
		reg: reg, genesis: genesis, txs: txs, gasLimit: gasLimit,
		header: &types.Header{Number: 1, GasLimit: gasLimit, Time: 15},
	}
	if res, _ := requireIdentical(t, d, 4); res == nil {
		t.Fatal("nonce chain errored")
	}
}

func TestParallelErrorEquality(t *testing.T) {
	t.Run("bad-nonce", func(t *testing.T) {
		d := sparseBody(40)
		// Corrupt one tx mid-body: re-sign with a wrong nonce.
		bad := wallet.NewKey("bad-nonce-sender")
		d.reg.Register(bad)
		d.txs[17] = bad.SignTx(&types.Transaction{
			Nonce: 7, To: kvAddr, GasPrice: 10, GasLimit: 100_000,
		}).Memoize()
		requireIdentical(t, d, 4)
	})
	t.Run("bad-signature", func(t *testing.T) {
		d := sparseBody(40)
		unregistered := wallet.NewKey("never-registered")
		d.txs[23] = unregistered.SignTx(&types.Transaction{
			Nonce: 0, To: kvAddr, GasPrice: 10, GasLimit: 100_000,
		}).Memoize()
		requireIdentical(t, d, 4)
	})
	t.Run("gas-limit", func(t *testing.T) {
		d := sparseBody(40)
		d.gasLimit = 100_000 * 10 // only ~10 txs fit
		d.header.GasLimit = d.gasLimit
		seq, par := d.processors(4)
		_, seqErr := seq.Process(d.genesis, d.header, d.txs)
		_, parErr := par.Process(d.genesis, d.header, d.txs)
		if !errors.Is(seqErr, ErrGasLimitReached) || !errors.Is(parErr, ErrGasLimitReached) {
			t.Fatalf("want ErrGasLimitReached from both, got sequential %v, parallel %v", seqErr, parErr)
		}
	})
}

func TestParallelThresholdFallback(t *testing.T) {
	d := sparseBody(8)
	cfg := Config{GasLimit: d.gasLimit, Registry: d.reg, Parallel: true, ParallelWorkers: 4}
	par := NewParallelProcessor(cfg) // default threshold 32 > 8
	if _, err := par.Process(d.genesis, d.header, d.txs); err != nil {
		t.Fatal(err)
	}
	stats := par.Stats()
	if stats.Fallbacks != 1 || stats.Speculated != 0 {
		t.Errorf("below-threshold body did not fall back: %+v", stats)
	}
}

func TestParallelChainInsertBlock(t *testing.T) {
	// A sequentially-mined block must import bit-identically on a
	// parallel-executing chain: the header roots came from the
	// sequential oracle, so any divergence fails root comparison.
	d := chainedBody(48)
	seqChain := New(Config{GasLimit: d.gasLimit, Registry: d.reg}, d.genesis)
	res, err := seqChain.Process(seqChain.State(), d.header, d.txs)
	if err != nil {
		t.Fatal(err)
	}
	d.header.ParentHash = seqChain.Head().Hash()
	block := &types.Block{Header: d.header, Txs: d.txs}
	d.header.TxRoot = block.TxRoot()
	d.header.ReceiptRoot = res.ReceiptRoot
	d.header.StateRoot = res.StateRoot
	d.header.GasUsed = res.GasUsed

	parChain := New(Config{
		GasLimit: d.gasLimit, Registry: d.reg,
		Parallel: true, ParallelWorkers: 4, ParallelThreshold: 1,
	}, d.genesis)
	receipts, err := parChain.InsertBlock(block)
	if err != nil {
		t.Fatalf("parallel chain rejected a sequentially-mined block: %v", err)
	}
	if len(receipts) != 48 {
		t.Fatalf("receipts = %d", len(receipts))
	}
	if stats := parChain.ParallelStats(); stats.Speculated == 0 {
		t.Error("import did not exercise the parallel path")
	}
}

func TestParallelDifferentialFuzzSeeds(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			n := 16 + int(seed%3)*24
			requireIdentical(t, randomBody(seed, n), 4)
		})
	}
}

func FuzzParallelDifferential(f *testing.F) {
	f.Add(int64(1), uint8(20))
	f.Add(int64(42), uint8(64))
	f.Add(int64(-7), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		if n == 0 {
			n = 1
		}
		requireIdentical(t, randomBody(seed, int(n)), 4)
	})
}

// TestParallelReopenedChainImports imports a sequentially built block on
// a parallel chain reopened from its store. The reopened head state
// resolves its accounts from the trie on first touch, so the merge that
// commits a speculated transaction must resolve them too: a blank
// account in their place drops the contract's code and balance, and the
// import fails its state root.
func TestParallelReopenedChainImports(t *testing.T) {
	kv := store.NewMem()
	c, owner := persistRig(t, kv, 2)
	block := buildBlock(t, c, nextSet(c, owner, 2, 99))
	cfg := c.Config()
	cfg.Parallel, cfg.ParallelWorkers, cfg.ParallelThreshold = true, 4, 1
	re, err := Open(cfg, kv)
	if err != nil {
		t.Fatal(err)
	}
	receipts, err := re.InsertBlock(block)
	if err != nil {
		t.Fatalf("reopened parallel chain rejected a sequentially built block: %v", err)
	}
	if receipts[0].Status != types.StatusSucceeded {
		t.Fatal("the set failed: the merge took its nonce-only path")
	}
	if stats := re.ParallelStats(); stats.Speculated == 0 {
		t.Error("import did not exercise the parallel path")
	}
}
