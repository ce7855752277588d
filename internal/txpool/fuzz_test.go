package txpool

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"sereth/internal/types"
	"sereth/internal/wallet"
)

// fuzzKeys are the fuzz target's signers: three registered, one unknown
// to the registry.
var (
	fuzzKeys = [4]*wallet.Key{
		wallet.NewKey("fuzz-batch-0"), wallet.NewKey("fuzz-batch-1"),
		wallet.NewKey("fuzz-batch-2"), wallet.NewKey("fuzz-batch-stranger"),
	}
	fuzzRegistry = func() *wallet.Registry {
		reg := wallet.NewRegistry()
		for _, k := range fuzzKeys[:3] {
			reg.Register(k)
		}
		return reg
	}()
)

// batchModel is the pool as a list: the live transactions in arrival
// order and the floor of every sender's account nonce. Its rules are the
// pool's, stated as plainly as they go.
type batchModel struct {
	capacity int
	evict    bool
	live     []*types.Transaction
	floor    map[types.Address]uint64
	feed     []string
}

func (m *batchModel) index(h types.Hash) int {
	return slices.IndexFunc(m.live, func(tx *types.Transaction) bool { return tx.Hash() == h })
}

func (m *batchModel) remove(i int) {
	m.feed = append(m.feed, fmt.Sprintf("- %x", m.live[i].Hash()))
	m.live = slices.Delete(m.live, i, i+1)
}

// admit applies the pool's decision to a transaction whose signature is
// valid or not.
func (m *batchModel) admit(tx *types.Transaction, signed bool) error {
	if !signed {
		return ErrRejected
	}
	if m.index(tx.Hash()) >= 0 {
		return ErrAlreadyKnown
	}
	resident := slices.IndexFunc(m.live, func(r *types.Transaction) bool { return r.From == tx.From && r.Nonce == tx.Nonce })
	switch {
	case resident >= 0:
		if tx.GasPrice <= m.live[resident].GasPrice {
			return ErrUnderpriced
		}
		m.remove(resident)
	case len(m.live) >= m.capacity:
		victim := -1
		for i, r := range m.live { // the oldest of the lowest priced
			if r.GasPrice < tx.GasPrice && (victim < 0 || r.GasPrice < m.live[victim].GasPrice) {
				victim = i
			}
		}
		if !m.evict || victim < 0 {
			return ErrPoolFull
		}
		m.remove(victim)
	}
	m.live = append(m.live, tx)
	m.feed = append(m.feed, fmt.Sprintf("+ %x", tx.Hash()))
	return nil
}

// block includes every resident transaction of sender below nonce, in
// arrival order, and raises the sender's floor to nonce: the block a
// miner could build, and the transactions Settle must then drop (the
// included, and any resident whose nonce is below its sender's floor).
func (m *batchModel) block(sender types.Address, nonce uint64) []*types.Transaction {
	var included []*types.Transaction
	for _, tx := range m.live {
		if tx.From == sender && tx.Nonce < nonce {
			included = append(included, tx)
		}
	}
	if nonce > m.floor[sender] {
		m.floor[sender] = nonce
	}
	for _, tx := range included {
		m.remove(m.index(tx.Hash()))
	}
	for i := 0; i < len(m.live); {
		if tx := m.live[i]; tx.Nonce < m.floor[tx.From] {
			m.remove(i)
			continue
		}
		i++
	}
	return included
}

// fuzzOp is one decoded fuzz operation: a transaction for the batch, or
// a block that ends it.
type fuzzOp struct {
	tx     *types.Transaction
	signed bool // what the model knows of its signature
	block  bool
	sender types.Address
	nonce  uint64
}

// decodeBatchOps reads three bytes an operation. The first picks the
// signer (two bits; the fourth signer is unknown to the registry) and
// flags: forge the signature, repeat an earlier transaction of the
// batch, share a memoized instance instead of a caller-owned copy, and
// (top three bits set) end the batch with a block up to a nonce. The
// second is the nonce, the third the gas price; few of each, so
// replacements, duplicates and stale nonces are common.
func decodeBatchOps(data []byte) []fuzzOp {
	var ops []fuzzOp
	var batch []fuzzOp
	for ; len(data) >= 3 && len(ops) < 96; data = data[3:] {
		flags, nonce, price := data[0], uint64(data[1]%6), uint64(data[2]%8+1)
		key := fuzzKeys[flags&3]
		switch {
		case flags>>5 == 7:
			ops = append(ops, fuzzOp{block: true, sender: key.Address(), nonce: nonce})
			batch = batch[:0]
			continue
		case flags&8 != 0 && len(batch) > 0:
			op := batch[int(data[1])%len(batch)]
			ops, batch = append(ops, op), append(batch, op)
			continue
		}
		tx := key.SignTx(&types.Transaction{
			Nonce:    nonce,
			To:       types.Address{19: 0x42},
			GasPrice: price,
			GasLimit: 100_000,
			Data:     []byte{flags, data[1], data[2]},
		})
		signed := flags&3 != 3
		if flags&4 != 0 {
			tx.Data[0] ^= 0x80 // the signature no longer covers the calldata
			signed = false
		}
		if flags&16 != 0 {
			tx.Memoize()
		}
		op := fuzzOp{tx: tx, signed: signed}
		ops, batch = append(ops, op), append(batch, op)
	}
	return ops
}

// FuzzAdmitBatch: AdmitBatch and a sequence of Admit calls on a twin pool
// make the same decisions — admitted instances, errors, change feed — and
// both agree with batchModel on the live set, its order and the (sender,
// nonce) index, through batches that mix valid transactions, forged
// signatures, unknown signers, duplicates within the batch, replacements
// priced above and below the resident, stale nonces after a block, and a
// full pool that rejects or evicts its lowest-priced resident. Every
// transaction is all in the pool or not in it at all. The seeds, one per
// case, are in testdata/fuzz/FuzzAdmitBatch.
func FuzzAdmitBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity, evict := 1+int(data[0]%8), data[0]&8 != 0
		opts := []Option{WithValidator(fuzzRegistry.VerifyTx), WithCapacity(capacity)}
		if evict {
			opts = append(opts, WithEvictLowest())
		}
		batchPool, seqPool := New(opts...), New(opts...)
		var batchFeed, seqFeed []string
		watch := func(p *Pool, feed *[]string) {
			p.Watch(func([]*types.Transaction, uint64) {}, func(c Change) {
				sign := "+"
				if c.Kind == TxRemoved {
					sign = "-"
				}
				*feed = append(*feed, fmt.Sprintf("%s %x", sign, c.Tx.Hash()))
			})
		}
		watch(batchPool, &batchFeed)
		watch(seqPool, &seqFeed)
		model := &batchModel{capacity: capacity, evict: evict, floor: map[types.Address]uint64{}}

		nonceOf := func(a types.Address) uint64 { return model.floor[a] }
		var batch []fuzzOp
		flush := func() {
			txs := make([]*types.Transaction, len(batch))
			for i, op := range batch {
				txs[i] = op.tx
			}
			admitted, errs := batchPool.AdmitBatch(txs)
			for i, op := range batch {
				kept, err := seqPool.Admit(op.tx)
				want := model.admit(op.tx, op.signed)
				if fmt.Sprint(err) != fmt.Sprint(errs[i]) || !errors.Is(err, want) {
					t.Fatalf("tx %d: batch %v, sequential %v, model %v", i, errs[i], err, want)
				}
				if (kept == nil) != (admitted[i] == nil) || (err == nil) != (kept != nil) {
					t.Fatalf("tx %d: batch admitted %v, sequential %v, error %v", i, admitted[i] != nil, kept != nil, err)
				}
				if kept != nil && (kept.Hash() != op.tx.Hash() || admitted[i].Hash() != kept.Hash() || !kept.Memoized() || !admitted[i].Memoized()) {
					t.Fatalf("tx %d: the admitted instances are not memoized copies of it", i)
				}
				if op.tx.Memoized() && kept != nil && (kept != op.tx || admitted[i] != op.tx) {
					t.Fatalf("tx %d: a memoized instance was copied", i)
				}
			}
			batch = batch[:0]
		}
		for _, op := range decodeBatchOps(data[1:]) {
			if !op.block {
				batch = append(batch, op)
				continue
			}
			flush()
			included := model.block(op.sender, op.nonce)
			batchPool.Settle(included, nonceOf)
			seqPool.Settle(included, nonceOf)
		}
		flush()

		if !slices.Equal(batchFeed, seqFeed) || !slices.Equal(batchFeed, model.feed) {
			t.Fatalf("change feeds differ:\nbatch      %v\nsequential %v\nmodel      %v", batchFeed, seqFeed, model.feed)
		}
		for _, p := range []*Pool{batchPool, seqPool} {
			checkAgainstModel(t, p, model)
		}
	})
}

// checkAgainstModel checks that the pool holds exactly the model's live
// transactions, in its order, and that every index agrees: the hash
// slots, the flat (sender, nonce) index, the arrival list and the count
// of each GasLimit.
func checkAgainstModel(t *testing.T, p *Pool, m *batchModel) {
	t.Helper()
	snap, _ := p.Snapshot()
	if len(snap) != len(m.live) || p.Len() != len(m.live) {
		t.Fatalf("pool holds %d (%d slots), model %d", len(snap), p.Len(), len(m.live))
	}
	for i, tx := range snap {
		if tx.Hash() != m.live[i].Hash() {
			t.Fatalf("pending %d: %x, model %x", i, tx.Hash(), m.live[i].Hash())
		}
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.byNonce) != len(m.live) {
		t.Fatalf("nonce index holds %d entries for %d transactions", len(p.byNonce), len(m.live))
	}
	gasLimits := map[uint64]int{}
	for _, tx := range m.live {
		gasLimits[tx.GasLimit]++
	}
	if !maps.Equal(p.gasLimits, gasLimits) {
		t.Fatalf("GasLimit counts %v, model %v", p.gasLimits, gasLimits)
	}
	for _, tx := range m.live {
		h := tx.Hash()
		i, ok := p.slot[h]
		if !ok || p.arrival[i] == nil || p.arrival[i].Hash() != h {
			t.Fatalf("slot index: %x is not at its arrival slot", h)
		}
		if p.byNonce[senderNonce{tx.From, tx.Nonce}] != p.arrival[i] {
			t.Fatalf("nonce index: (%x, %d) does not name %x", tx.From, tx.Nonce, h)
		}
	}
}
