package chain

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/statedb"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

var contractAddr = types.Address{19: 0xcc}

func genesisWithContract() *statedb.StateDB {
	st := statedb.New()
	st.SetCode(contractAddr, asm.SerethContract())
	return st
}

func setTxFor(key *wallet.Key, nonce uint64, prev types.Word, value uint64, flag types.Word) *types.Transaction {
	tx := &types.Transaction{
		Nonce:    nonce,
		To:       contractAddr,
		GasPrice: 10,
		GasLimit: 300_000,
		Data:     types.EncodeCall(asm.SelSet, flag, prev, types.WordFromUint64(value)),
	}
	return key.SignTx(tx)
}

// buildBlock assembles a valid next block for the chain from raw txs.
func buildBlock(t *testing.T, c *Chain, txs []*types.Transaction) *types.Block {
	t.Helper()
	head := c.Head()
	header := &types.Header{
		ParentHash: head.Hash(),
		Number:     head.Number() + 1,
		GasLimit:   c.Config().GasLimit,
		Time:       head.Header.Time + 15,
	}
	res, err := c.Process(c.State(), header, txs)
	if err != nil {
		t.Fatalf("execute block: %v", err)
	}
	header.TxRoot = types.DeriveTxRoot(txs)
	header.ReceiptRoot = types.DeriveReceiptRoot(header.Number, txs, res.Receipts)
	header.StateRoot = res.Post.Root()
	header.GasUsed = res.GasUsed
	if !Seal(header, c.Config().Difficulty, 1<<20) {
		t.Fatal("seal search failed")
	}
	return &types.Block{Header: header, Txs: txs}
}

func newTestChain(t *testing.T, reg *wallet.Registry) *Chain {
	cfg := DefaultConfig()
	cfg.Registry = reg
	return New(cfg, genesisWithContract())
}

func TestGenesis(t *testing.T) {
	c := newTestChain(t, nil)
	if c.Height() != 0 {
		t.Error("genesis height != 0")
	}
	if c.BlockByNumber(0) != c.Head() {
		t.Error("genesis lookup failed")
	}
	if c.BlockByNumber(5) != nil {
		t.Error("phantom block")
	}
	var code []byte
	c.ReadState(func(st *statedb.StateDB) { code = st.GetCode(contractAddr) })
	if len(code) == 0 {
		t.Error("genesis state missing contract")
	}
}

func TestInsertValidBlock(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	c := newTestChain(t, reg)

	tx := setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)
	block := buildBlock(t, c, []*types.Transaction{tx})
	receipts, err := c.InsertBlock(block)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if len(receipts) != 1 || receipts[0].Status != types.StatusSucceeded {
		t.Fatalf("receipt: %+v", receipts[0])
	}
	if c.Height() != 1 {
		t.Error("height not advanced")
	}
	// Contract state committed.
	var price types.Word
	c.ReadState(func(st *statedb.StateDB) {
		price = st.GetState(contractAddr, types.WordFromUint64(asm.SlotValue))
	})
	if v, _ := price.Uint64(); v != 5 {
		t.Errorf("price = %d", v)
	}
	if got := c.Receipts(block.Hash()); len(got) != 1 {
		t.Error("receipts not stored")
	}
}

func TestFailedTxIncludedButRolledBack(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	c := newTestChain(t, reg)

	// Stale mark: the contract rejects; the tx is included but Failed.
	tx := setTxFor(alice, 0, types.WordFromUint64(123), 5, types.FlagHead)
	block := buildBlock(t, c, []*types.Transaction{tx})
	receipts, err := c.InsertBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != types.StatusFailed {
		t.Error("stale set should fail")
	}
	if receipts[0].GasUsed == 0 {
		t.Error("failed tx must still consume gas")
	}
	var price types.Word
	c.ReadState(func(st *statedb.StateDB) {
		price = st.GetState(contractAddr, types.WordFromUint64(asm.SlotValue))
		// Nonce still advances for included txs.
		if st.GetNonce(alice.Address()) != 1 {
			t.Error("nonce not advanced for failed tx")
		}
	})
	if !price.IsZero() {
		t.Error("failed tx mutated contract state")
	}
}

func TestInsertRejectsTamperedBlock(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)

	tests := []struct {
		name   string
		mutate func(*types.Block)
		want   error
	}{
		{"wrong-parent", func(b *types.Block) { b.Header.ParentHash = types.Hash{1} }, ErrUnknownParent},
		{"wrong-number", func(b *types.Block) { b.Header.Number = 9 }, ErrUnknownParent}, // parent hash checked first? number via parent
		{"state-root", func(b *types.Block) { b.Header.StateRoot = types.Hash{2} }, ErrBadStateRoot},
		{"tx-root", func(b *types.Block) { b.Header.TxRoot = types.Hash{3} }, ErrBadTxRoot},
		{"receipt-root", func(b *types.Block) { b.Header.ReceiptRoot = types.Hash{4} }, ErrBadReceiptRoot},
		{"gas-used", func(b *types.Block) { b.Header.GasUsed++ }, ErrBadGasUsed},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := newTestChain(t, reg)
			block := buildBlock(t, c, []*types.Transaction{setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)})
			tt.mutate(block)
			if _, err := c.InsertBlock(block); err == nil {
				t.Fatal("tampered block accepted")
			} else if tt.want != nil && !errors.Is(err, tt.want) && tt.name != "wrong-number" {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
			if c.Height() != 0 {
				t.Error("tampered block advanced the chain")
			}
		})
	}
}

func TestInsertRejectsTamperedCalldata(t *testing.T) {
	// The RAA limitation demo (paper §III-D): a malicious client rewrites
	// the signed calldata of a transaction; validation by replay rejects
	// the block because the signature no longer matches.
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	c := newTestChain(t, reg)

	tx := setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)
	tampered := tx.Copy()
	// Double the "price" in the calldata without re-signing.
	tampered.Data[len(tampered.Data)-1] = 10

	head := c.Head()
	header := &types.Header{
		ParentHash: head.Hash(),
		Number:     1,
		GasLimit:   c.Config().GasLimit,
	}
	txs := []*types.Transaction{tampered}
	if _, err := c.Process(c.State(), header, txs); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered calldata: %v", err)
	}
}

func TestNonceEnforcement(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	c := newTestChain(t, reg)

	// Nonce 1 before nonce 0: rejected at execution time.
	tx := setTxFor(alice, 1, types.ZeroWord, 5, types.FlagHead)
	header := &types.Header{ParentHash: c.Head().Hash(), Number: 1, GasLimit: c.Config().GasLimit}
	if _, err := c.Process(c.State(), header, []*types.Transaction{tx}); !errors.Is(err, ErrBadNonce) {
		t.Errorf("bad nonce: %v", err)
	}
}

func TestBlockGasLimit(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	cfg := Config{GasLimit: 100_000, Registry: reg}
	c := New(cfg, genesisWithContract())

	// One 300k-gas-limit tx exceeds the 100k block limit.
	tx := setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)
	header := &types.Header{ParentHash: c.Head().Hash(), Number: 1, GasLimit: cfg.GasLimit}
	if _, err := c.Process(c.State(), header, []*types.Transaction{tx}); !errors.Is(err, ErrGasLimitReached) {
		t.Errorf("gas limit: %v", err)
	}
}

func TestChainedBlocks(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	c := newTestChain(t, reg)

	prevMark := types.ZeroWord
	flag := types.FlagHead
	for i := 0; i < 5; i++ {
		tx := setTxFor(alice, uint64(i), prevMark, uint64(10+i), flag)
		block := buildBlock(t, c, []*types.Transaction{tx})
		receipts, err := c.InsertBlock(block)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if receipts[0].Status != types.StatusSucceeded {
			t.Fatalf("block %d tx failed", i)
		}
		prevMark = types.NextMark(prevMark, types.WordFromUint64(uint64(10+i)))
		flag = types.FlagHead // each block starts fresh from committed state
	}
	if c.Height() != 5 {
		t.Errorf("height = %d", c.Height())
	}
	var mark types.Word
	c.ReadState(func(st *statedb.StateDB) {
		mark = st.GetState(contractAddr, types.WordFromUint64(asm.SlotMark))
	})
	if mark != prevMark {
		t.Error("committed mark chain broken")
	}
}

func TestTwoChainsConverge(t *testing.T) {
	// Validation by replay: an independently-validating peer reaches the
	// same state root (the paper's interoperability property).
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	producer := newTestChain(t, reg)
	validator := newTestChain(t, reg)

	tx := setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)
	block := buildBlock(t, producer, []*types.Transaction{tx})
	if _, err := producer.InsertBlock(block); err != nil {
		t.Fatal(err)
	}
	if _, err := validator.InsertBlock(block); err != nil {
		t.Fatalf("validator rejected honest block: %v", err)
	}
	if producer.State().Root() != validator.State().Root() {
		t.Error("peers diverged after replay")
	}
}

func TestValueTransfer(t *testing.T) {
	alice, bob := wallet.NewKey("alice"), wallet.NewKey("bob")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	reg.Register(bob)
	st := statedb.New()
	st.AddBalance(alice.Address(), 1000)
	cfg := DefaultConfig()
	cfg.Registry = reg
	c := New(cfg, st)

	tx := alice.SignTx(&types.Transaction{
		Nonce: 0, To: bob.Address(), Value: 400, GasPrice: 1, GasLimit: 21000,
	})
	block := buildBlock(t, c, []*types.Transaction{tx})
	receipts, err := c.InsertBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != types.StatusSucceeded {
		t.Error("transfer failed")
	}
	c.ReadState(func(s *statedb.StateDB) {
		if s.GetBalance(bob.Address()) != 400 || s.GetBalance(alice.Address()) != 600 {
			t.Errorf("balances: %d/%d", s.GetBalance(alice.Address()), s.GetBalance(bob.Address()))
		}
	})

	// Overdraft: included but failed.
	tx2 := alice.SignTx(&types.Transaction{
		Nonce: 1, To: bob.Address(), Value: 10_000, GasPrice: 1, GasLimit: 21000,
	})
	block2 := buildBlock(t, c, []*types.Transaction{tx2})
	receipts, err = c.InsertBlock(block2)
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != types.StatusFailed {
		t.Error("overdraft succeeded")
	}
}

func TestContractNoopWithValueFails(t *testing.T) {
	// Regression: a contract-rejected no-op carrying value used to be
	// classified Succeeded — the transfer's own journal entries defeated
	// the "no state effect" check — which skewed η's failed-tx
	// accounting. It must fail AND return the value.
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	genesis := genesisWithContract()
	genesis.AddBalance(alice.Address(), 1000)
	cfg := DefaultConfig()
	cfg.Registry = reg
	c := New(cfg, genesis)

	// Stale mark => the contract rejects the set; the tx carries value.
	tx := alice.SignTx(&types.Transaction{
		Nonce:    0,
		To:       contractAddr,
		Value:    400,
		GasPrice: 10,
		GasLimit: 300_000,
		Data:     types.EncodeCall(asm.SelSet, types.FlagHead, types.WordFromUint64(123), types.WordFromUint64(5)),
	})
	block := buildBlock(t, c, []*types.Transaction{tx})
	receipts, err := c.InsertBlock(block)
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != types.StatusFailed {
		t.Error("contract-rejected no-op with value classified as succeeded")
	}
	c.ReadState(func(st *statedb.StateDB) {
		if got := st.GetBalance(alice.Address()); got != 1000 {
			t.Errorf("value not returned on failure: balance %d", got)
		}
		if got := st.GetBalance(contractAddr); got != 0 {
			t.Errorf("contract kept value of failed tx: %d", got)
		}
		if st.GetNonce(alice.Address()) != 1 {
			t.Error("nonce not advanced for included failed tx")
		}
	})
	// A successful contract call carrying value keeps the transfer.
	tx2 := alice.SignTx(&types.Transaction{
		Nonce:    1,
		To:       contractAddr,
		Value:    100,
		GasPrice: 10,
		GasLimit: 300_000,
		Data:     types.EncodeCall(asm.SelSet, types.FlagHead, types.ZeroWord, types.WordFromUint64(5)),
	})
	block2 := buildBlock(t, c, []*types.Transaction{tx2})
	receipts, err = c.InsertBlock(block2)
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].Status != types.StatusSucceeded {
		t.Error("valid set with value failed")
	}
	c.ReadState(func(st *statedb.StateDB) {
		if got := st.GetBalance(contractAddr); got != 100 {
			t.Errorf("successful call lost its value: contract balance %d", got)
		}
	})
}

func TestSealRestoresNonceOnFailure(t *testing.T) {
	// Regression: an exhausted seal search used to leave maxIter-1 in the
	// header. On failure the original nonce must be restored.
	h := &types.Header{Number: 1, ParentHash: types.Hash{1}, PowNonce: 0xabcd}
	if Seal(h, 1<<63, 4) {
		t.Fatal("4-iteration search at extreme difficulty unexpectedly succeeded")
	}
	if h.PowNonce != 0xabcd {
		t.Errorf("failed seal search mutated nonce: %#x", h.PowNonce)
	}
}

func TestSealRoundTrip(t *testing.T) {
	h := &types.Header{Number: 1, ParentHash: types.Hash{1}}
	const difficulty = 16
	if !Seal(h, difficulty, 1<<20) {
		t.Fatal("seal search failed")
	}
	if !SealValid(h, difficulty) {
		t.Error("found seal does not validate")
	}
	// Difficulty <= 1 always valid.
	if !SealValid(&types.Header{}, 0) || !SealValid(&types.Header{}, 1) {
		t.Error("trivial difficulty rejected")
	}
}

func TestSealedChainRejectsUnsealed(t *testing.T) {
	alice := wallet.NewKey("alice")
	reg := wallet.NewRegistry()
	reg.Register(alice)
	cfg := Config{GasLimit: 10_000_000, Difficulty: 1 << 12, Registry: reg}
	c := New(cfg, genesisWithContract())

	block := buildBlock(t, c, []*types.Transaction{setTxFor(alice, 0, types.ZeroWord, 5, types.FlagHead)})
	// buildBlock sealed it; breaking the nonce must fail.
	block.Header.PowNonce = block.Header.PowNonce + 1
	for SealValid(block.Header, cfg.Difficulty) {
		block.Header.PowNonce++
	}
	if _, err := c.InsertBlock(block); !errors.Is(err, ErrBadSeal) {
		t.Errorf("unsealed block: %v", err)
	}
}

// TestReceiptsAndBlockGiveFullReceipts: a chain keeps only what a block
// cannot give of a receipt, and the block gives the rest. Three blocks of
// ten mixed transactions each (randomBody: successes, contract-rejected
// no-ops, failed transfers, return words set and clear), at three seeds:
// every block's hash and receipt root, and every receipt read from
// Receipts(hash) with its transaction's hash, index and block number
// taken from the block, must equal field for field the full receipts
// (which carried hash, number and index themselves) recorded in
// testdata/receipts.golden before receipts became compact.
func TestReceiptsAndBlockGiveFullReceipts(t *testing.T) {
	var out strings.Builder
	for _, seed := range []int64{1, 2, 3} {
		d := randomBody(seed, 30)
		c := New(Config{GasLimit: d.gasLimit, Registry: d.reg}, d.genesis)
		for b := 0; b < 3; b++ {
			blk := buildBlock(t, c, d.txs[10*b:10*b+10])
			if _, err := c.InsertBlock(blk); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "block %d %d %x %x\n", seed, blk.Number(), blk.Hash(), blk.Header.ReceiptRoot)
			for i, r := range c.Receipts(blk.Hash()) {
				fmt.Fprintf(&out, "%d %d %d %x %d %d %x\n", seed, blk.Number(), i, blk.Txs[i].Hash(), r.Status, r.GasUsed, r.ReturnValue)
			}
		}
	}
	want, err := os.ReadFile("testdata/receipts.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("blocks and receipts differ from the golden:\n%s", got)
	}
}
