package miner

import (
	"testing"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/hms"
	"sereth/internal/statedb"
	"sereth/internal/txpool"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

var contractAddr = types.Address{19: 0xcc}

func addr(b byte) types.Address {
	var a types.Address
	a[19] = b
	return a
}

func rawTx(sender byte, nonce, price uint64) *types.Transaction {
	return &types.Transaction{
		Nonce: nonce, From: addr(sender), To: addr(0xcc),
		GasPrice: price, GasLimit: 50_000, Data: []byte{sender, byte(nonce)},
	}
}

func zeroNonces(types.Address) uint64 { return 0 }

func TestBaselineRespectsNonceOrder(t *testing.T) {
	b := NewBaseline(1)
	pending := []*types.Transaction{
		rawTx(1, 2, 10), rawTx(1, 0, 10), rawTx(1, 1, 10),
		rawTx(2, 1, 10), rawTx(2, 0, 10),
	}
	out := b.Order(pending, zeroNonces)
	if len(out) != 5 {
		t.Fatalf("len = %d", len(out))
	}
	seen := map[byte]uint64{}
	for _, tx := range out {
		s := tx.From[19]
		if want, ok := seen[s]; ok && tx.Nonce != want {
			t.Fatalf("sender %d nonce order broken: got %d want %d", s, tx.Nonce, want)
		}
		seen[s] = tx.Nonce + 1
	}
}

func TestBaselinePrefersHigherPrice(t *testing.T) {
	b := NewBaseline(1)
	cheap := rawTx(1, 0, 5)
	rich := rawTx(2, 0, 50)
	out := b.Order([]*types.Transaction{cheap, rich}, zeroNonces)
	if out[0].Hash() != rich.Hash() {
		t.Error("higher-price tx not first")
	}
}

func TestBaselineDeterministicPerSeed(t *testing.T) {
	pending := []*types.Transaction{}
	for s := byte(1); s <= 5; s++ {
		for n := uint64(0); n < 3; n++ {
			pending = append(pending, rawTx(s, n, 10))
		}
	}
	a := NewBaseline(42).Order(pending, zeroNonces)
	b := NewBaseline(42).Order(pending, zeroNonces)
	for i := range a {
		if a[i].Hash() != b[i].Hash() {
			t.Fatal("same seed, different order")
		}
	}
	c := NewBaseline(43).Order(pending, zeroNonces)
	same := true
	for i := range a {
		if a[i].Hash() != c[i].Hash() {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical interleaving (suspicious)")
	}
}

func TestRepairNonceOrder(t *testing.T) {
	// Desired order has sender 1's nonce 1 before nonce 0 plus a stale
	// nonce: repair defers/reorders and drops the stale one.
	stale := rawTx(1, 0, 10)
	first := rawTx(1, 1, 10)
	second := rawTx(1, 2, 10)
	desired := []*types.Transaction{second, first, stale}
	out := repairNonceOrder(desired, func(a types.Address) uint64 { return 1 })
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0].Nonce != 1 || out[1].Nonce != 2 {
		t.Errorf("order: %d,%d", out[0].Nonce, out[1].Nonce)
	}
}

func TestRepairDropsGapped(t *testing.T) {
	// Nonce 2 with expected 0 and no 0/1 present: unplaceable, dropped.
	out := repairNonceOrder([]*types.Transaction{rawTx(1, 2, 10)}, zeroNonces)
	if len(out) != 0 {
		t.Error("gapped tx not dropped")
	}
}

// --- Semantic strategy ---------------------------------------------------

func tracker() *hms.Tracker {
	return hms.NewTracker(hms.Config{
		Contract:    contractAddr,
		SetSelector: asm.SelSet,
		BuySelector: asm.SelBuy,
	})
}

func setTx(owner *wallet.Key, nonce uint64, flag, prev types.Word, value uint64) *types.Transaction {
	return owner.SignTx(&types.Transaction{
		Nonce: nonce, To: contractAddr, GasPrice: 10, GasLimit: 300_000,
		Data: types.EncodeCall(asm.SelSet, flag, prev, types.WordFromUint64(value)),
	})
}

func buyTx(buyer *wallet.Key, nonce uint64, prev types.Word, value uint64) *types.Transaction {
	return buyer.SignTx(&types.Transaction{
		Nonce: nonce, To: contractAddr, GasPrice: 10, GasLimit: 300_000,
		Data: types.EncodeCall(asm.SelBuy, types.FlagChain, prev, types.WordFromUint64(value)),
	})
}

func TestSemanticInterleavesBuysAfterSets(t *testing.T) {
	owner := wallet.NewKey("owner")
	buyer1 := wallet.NewKey("b1")
	buyer2 := wallet.NewKey("b2")
	tr := tracker()

	m0 := types.ZeroWord
	m1 := types.NextMark(m0, types.WordFromUint64(5))
	m2 := types.NextMark(m1, types.WordFromUint64(7))

	set1 := setTx(owner, 0, types.FlagHead, m0, 5)
	set2 := setTx(owner, 1, types.FlagChain, m1, 7)
	buyAt5 := buyTx(buyer1, 0, m1, 5)
	buyAt7 := buyTx(buyer2, 0, m2, 7)
	buyCommitted := buyTx(wallet.NewKey("b3"), 0, m0, 0) // reads committed (zero) state

	// Pool in adversarial arrival order.
	pending := []*types.Transaction{buyAt7, set2, buyAt5, set1, buyCommitted}
	s := NewSemantic(tr, 1)
	out := s.Order(pending, zeroNonces)
	if len(out) != 5 {
		t.Fatalf("len = %d", len(out))
	}
	pos := map[types.Hash]int{}
	for i, tx := range out {
		pos[tx.Hash()] = i
	}
	if pos[buyCommitted.Hash()] != 0 {
		t.Error("committed-interval buy not first")
	}
	if !(pos[set1.Hash()] < pos[buyAt5.Hash()] && pos[buyAt5.Hash()] < pos[set2.Hash()]) {
		t.Errorf("interleaving wrong: %v", pos)
	}
	if !(pos[set2.Hash()] < pos[buyAt7.Hash()]) {
		t.Error("buy@7 not after set(7)")
	}
}

func TestSemanticFallsBackForNonHMSTraffic(t *testing.T) {
	tr := tracker()
	plain := rawTx(9, 0, 10)
	out := NewSemantic(tr, 1).Order([]*types.Transaction{plain}, zeroNonces)
	if len(out) != 1 || out[0].Hash() != plain.Hash() {
		t.Error("non-HMS tx lost")
	}
}

// --- Full miner ----------------------------------------------------------

func miningFixture(t *testing.T, strategySeed int64, semantic bool) (*chain.Chain, *txpool.Pool, *Miner, *hms.Tracker, *wallet.Key, *wallet.Key) {
	t.Helper()
	owner := wallet.NewKey("owner")
	buyer := wallet.NewKey("buyer")
	reg := wallet.NewRegistry()
	reg.Register(owner)
	reg.Register(buyer)

	st := statedb.New()
	st.SetCode(contractAddr, asm.SerethContract())
	cfg := chain.DefaultConfig()
	cfg.Registry = reg
	c := chain.New(cfg, st)
	pool := txpool.New()
	tr := tracker()

	var strat Strategy
	if semantic {
		strat = NewSemantic(tr, strategySeed)
	} else {
		strat = NewBaseline(strategySeed)
	}
	m := NewMiner(c, pool, strat, addr(0xee))
	return c, pool, m, tr, owner, buyer
}

func TestMinerBuildsValidBlock(t *testing.T) {
	c, pool, m, _, owner, buyer := miningFixture(t, 1, false)
	if err := pool.Add(setTx(owner, 0, types.FlagHead, types.ZeroWord, 5)); err != nil {
		t.Fatal(err)
	}
	m1 := types.NextMark(types.ZeroWord, types.WordFromUint64(5))
	if err := pool.Add(buyTx(buyer, 0, m1, 5)); err != nil {
		t.Fatal(err)
	}

	block, err := m.BuildBlock(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 2 {
		t.Fatalf("block txs = %d", len(block.Txs))
	}
	receipts, err := c.InsertBlock(block)
	if err != nil {
		t.Fatalf("own block rejected: %v", err)
	}
	_ = receipts
	if c.Height() != 1 {
		t.Error("height not advanced")
	}
}

func TestSemanticMinerMaximizesSuccess(t *testing.T) {
	// With sets and dependent buys in the pool in adversarial order, the
	// semantic miner produces a block where every transaction succeeds.
	c, pool, m, tr, owner, buyer := miningFixture(t, 7, true)
	_ = tr

	m0 := types.ZeroWord
	v5 := types.WordFromUint64(5)
	m1 := types.NextMark(m0, v5)
	v7 := types.WordFromUint64(7)
	m2 := types.NextMark(m1, v7)

	// Arrival order interleaves buys before their sets.
	txs := []*types.Transaction{
		buyTx(buyer, 0, m1, 5),
		setTx(owner, 0, types.FlagHead, m0, 5),
		buyTx(buyer, 1, m2, 7),
		setTx(owner, 1, types.FlagChain, m1, 7),
	}
	for _, tx := range txs {
		if err := pool.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	block, err := m.BuildBlock(15)
	if err != nil {
		t.Fatal(err)
	}
	receipts, err := c.InsertBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range receipts {
		if r.Status != types.StatusSucceeded {
			t.Errorf("tx %d failed under semantic mining", i)
		}
	}
}

func TestBaselineMinerCausesFailures(t *testing.T) {
	// The same adversarial pool under a baseline ordering that places a
	// buy before its set produces failures — the stale-read problem.
	failures := 0
	for seed := int64(0); seed < 10; seed++ {
		c, pool, m, _, owner, buyer := miningFixture(t, seed, false)
		m0 := types.ZeroWord
		v5 := types.WordFromUint64(5)
		m1 := types.NextMark(m0, v5)
		for _, tx := range []*types.Transaction{
			buyTx(buyer, 0, m1, 5),
			setTx(owner, 0, types.FlagHead, m0, 5),
		} {
			if err := pool.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
		block, err := m.BuildBlock(15)
		if err != nil {
			t.Fatal(err)
		}
		receipts, err := c.InsertBlock(block)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range receipts {
			if r.Status == types.StatusFailed {
				failures++
			}
		}
	}
	if failures == 0 {
		t.Error("baseline ordering never failed a dependent buy across 10 seeds")
	}
}

func TestMinerRespectsGasLimit(t *testing.T) {
	owner := wallet.NewKey("owner")
	reg := wallet.NewRegistry()
	reg.Register(owner)
	st := statedb.New()
	st.SetCode(contractAddr, asm.SerethContract())
	cfg := chain.Config{GasLimit: 650_000, Registry: reg} // fits two 300k txs
	c := chain.New(cfg, st)
	pool := txpool.New()
	m := NewMiner(c, pool, NewBaseline(1), addr(0xee))

	prev := types.ZeroWord
	for i := uint64(0); i < 5; i++ {
		v := types.WordFromUint64(i + 1)
		flag := types.FlagHead
		if i > 0 {
			flag = types.FlagChain
		}
		if err := pool.Add(setTx(owner, i, flag, prev, i+1)); err != nil {
			t.Fatal(err)
		}
		prev = types.NextMark(prev, v)
	}
	block, err := m.BuildBlock(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) > 2 {
		t.Errorf("block has %d txs, exceeds gas budget", len(block.Txs))
	}
	if _, err := c.InsertBlock(block); err != nil {
		t.Fatal(err)
	}
}

func TestMinerEmptyPool(t *testing.T) {
	c, _, m, _, _, _ := miningFixture(t, 1, false)
	block, err := m.BuildBlock(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 0 {
		t.Error("empty pool produced a non-empty block")
	}
	if _, err := c.InsertBlock(block); err != nil {
		t.Fatal(err)
	}
}

// TestBuildWritesNothingAdoptionMemoizes pins what the shared cache
// holds: verified executions only. A build neither reads nor writes it; an
// InsertBlock of the built block is a replay like any peer's (one miss,
// one entry); the miner's adoption of its own build (Build + InsertBuilt)
// reads nothing and writes exactly one entry, the execution its import
// verified, for the other peers to adopt.
func TestBuildWritesNothingAdoptionMemoizes(t *testing.T) {
	owner := wallet.NewKey("owner")
	reg := wallet.NewRegistry()
	reg.Register(owner)
	st := statedb.New()
	st.SetCode(contractAddr, asm.SerethContract())
	cfg := chain.DefaultConfig()
	cfg.Registry = reg
	cfg.ExecCache = chain.NewExecCache(0)
	c := chain.New(cfg, st)
	pool := txpool.New()
	m := NewMiner(c, pool, NewBaseline(1), addr(0xee))

	if err := pool.Add(setTx(owner, 0, types.FlagHead, types.ZeroWord, 5)); err != nil {
		t.Fatal(err)
	}
	block, err := m.BuildBlock(15)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ExecCache.Len() != 0 {
		t.Error("BuildBlock populated the exec cache before any import")
	}
	if _, err := c.InsertBlock(block); err != nil {
		t.Fatal(err)
	}
	if cfg.ExecCache.Len() != 1 {
		t.Error("self-import replay did not populate the cache")
	}
	if hits, misses := cfg.ExecCache.Stats(); hits != 0 || misses != 1 {
		t.Errorf("self-import was not a cache miss: hits=%d misses=%d", hits, misses)
	}

	m1 := types.NextMark(types.ZeroWord, types.WordFromUint64(5))
	if err := pool.Add(setTx(owner, 1, types.FlagChain, m1, 6)); err != nil {
		t.Fatal(err)
	}
	block, built, err := m.Build(30)
	if err != nil {
		t.Fatal(err)
	}
	if built.StateRoot != block.Header.StateRoot || len(built.Receipts) != len(block.Txs) {
		t.Fatal("Build returned an execution that is not the block's")
	}
	if cfg.ExecCache.Len() != 1 {
		t.Error("Build populated the exec cache before any import")
	}
	parent := c.Head().Header.StateRoot
	if _, err := c.InsertBuilt(block, built); err != nil {
		t.Fatal(err)
	}
	var head *statedb.StateDB
	c.ReadState(func(st *statedb.StateDB) { head = st })
	if head != built.Post {
		t.Error("the chain replayed a block it was handed the execution of")
	}
	if hits, misses := cfg.ExecCache.Stats(); cfg.ExecCache.Len() != 2 || hits != 0 || misses != 1 {
		t.Errorf("adopting a build: %d entries, hits=%d misses=%d; want one entry written, nothing read (2, 0, 1)", cfg.ExecCache.Len(), hits, misses)
	}
	if res, ok := cfg.ExecCache.Get(chain.ExecKey{ParentRoot: parent, BlockHash: block.Hash()}); !ok || res != built {
		t.Error("the entry the adoption wrote is not the execution it verified")
	}
}
