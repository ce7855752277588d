package types

import (
	"bytes"
	"testing"

	"sereth/internal/rlp"
)

// The Item-tree forms of the two transaction digests: each encoding built
// as a tree of copied strings and hashed from the heap, as the digests
// were derived before they encoded into stack scratch.

func sigItem(tx *Transaction) []rlp.Item {
	return []rlp.Item{
		rlp.Uint(tx.Nonce), rlp.String(tx.To[:]), rlp.Uint(tx.Value), rlp.Uint(tx.GasPrice),
		rlp.Uint(tx.GasLimit), rlp.String(tx.Data), rlp.String(tx.From[:]),
	}
}

func itemSigHash(tx *Transaction) Hash { return Keccak(rlp.Encode(rlp.List(sigItem(tx)...))) }

func itemHash(tx *Transaction) Hash {
	return Keccak(rlp.Encode(rlp.List(append(sigItem(tx), rlp.String(tx.Sig[:]))...)))
}

// widestTx is a transaction whose every integer takes its widest
// encoding, so its encoding is as long as calldata of n bytes allows.
func widestTx(n int) *Transaction {
	w := ^uint64(0)
	return &Transaction{
		Nonce: w, To: Address{0: 0xaa, 19: 0xaa}, Value: w, GasPrice: w, GasLimit: w,
		Data: bytes.Repeat([]byte{0xab}, n), From: Address{0: 0xbb, 19: 0xbb}, Sig: Keccak([]byte("sig")),
	}
}

// TestTxDigestsEncodeOnTheStack: SigHash and Hash encode into stack
// scratch and allocate nothing while the calldata fits it — up to exactly
// its boundary — and one heap buffer each beyond it. Either way they are
// the digests of the Item-tree encodings, and Hash is that of EncodeRLP.
func TestTxDigestsEncodeOnTheStack(t *testing.T) {
	fits := txScratchSize - txMaxOverhead
	for _, n := range []int{0, 1, fits, fits + 1, 4096} {
		tx := widestTx(n)
		if tx.SigHash() != itemSigHash(tx) || tx.Hash() != itemHash(tx) || tx.Hash() != Keccak(tx.EncodeRLP()) {
			t.Fatalf("calldata of %d bytes: digests differ from the heap path's", n)
		}
		frozen := widestTx(n).Memoize()
		if frozen.SigHash() != tx.SigHash() || frozen.Hash() != tx.Hash() {
			t.Fatalf("calldata of %d bytes: memoized digests differ", n)
		}
		want := 0.0
		if n > fits {
			want = 2
		}
		if got := testing.AllocsPerRun(50, func() { tx.SigHash(); tx.Hash() }); got != want {
			t.Errorf("calldata of %d bytes: the two digests allocate %v times, want %v", n, got, want)
		}
	}
}

// kept holds what an allocation count measures, so the compiler cannot
// keep it on the stack.
var kept *Transaction

// TestFrozenCopyIsOneObject: FrozenCopy is one allocation — the copy, its
// derived block and its calldata — while the calldata fits 128 bytes,
// and two beyond. Either way it is Copy().Freeze() field for field and
// digest for digest, and shares no byte with the original.
func TestFrozenCopyIsOneObject(t *testing.T) {
	for _, n := range []int{0, 100, frozenCalldata, frozenCalldata + 1, 4096} {
		tx := widestTx(n)
		tx.Data = append(tx.Data, 0xcd)[:n] // a spare byte past len: the copy must not see it
		cp, ref := FrozenCopy(tx), tx.Copy().Freeze()
		if !bytes.Equal(cp.EncodeRLP(), ref.EncodeRLP()) || cp.Hash() != ref.Hash() || cp.SigHash() != ref.SigHash() {
			t.Fatalf("calldata of %d bytes: the frozen copy encodes or hashes differently", n)
		}
		if cpSel, cpOK := cp.Selector(); cpSel != ref.derived.sel || cpOK != ref.derived.selOK {
			t.Fatalf("calldata of %d bytes: selector %x/%v, want %x/%v", n, cpSel, cpOK, ref.derived.sel, ref.derived.selOK)
		}
		if cpFPV, err := cp.FPV(); cpFPV != ref.derived.fpv || (err == nil) != (ref.derived.fpvErr == nil) {
			t.Fatalf("calldata of %d bytes: FPV differs", n)
		}
		if len(cp.Data) != n || (n <= frozenCalldata && cap(cp.Data) != n) {
			t.Fatalf("calldata of %d bytes: the copy's calldata has length %d, capacity %d", n, len(cp.Data), cap(cp.Data))
		}
		if n > 0 {
			tx.Data[0] ^= 1
			if cp.Data[0] == tx.Data[0] {
				t.Fatalf("calldata of %d bytes: the copy shares the original's calldata", n)
			}
		}
		want := 1.0
		if n > frozenCalldata {
			want = 2
		}
		if got := testing.AllocsPerRun(50, func() { kept = FrozenCopy(tx) }); got != want {
			t.Errorf("calldata of %d bytes: FrozenCopy allocates %v times, want %v", n, got, want)
		}
	}
}

// TestDecodeTransactionIsOneObject: a decoded transaction is built the
// way FrozenCopy builds a copy — one allocation while its calldata fits
// 128 bytes, two beyond — and a block's body costs that per transaction,
// plus the header and the slice.
func TestDecodeTransactionIsOneObject(t *testing.T) {
	for _, n := range []int{0, 100, frozenCalldata, frozenCalldata + 1, 4096} {
		enc := widestTx(n).EncodeRLP()
		want := 1.0
		if n > frozenCalldata {
			want = 2
		}
		if got := testing.AllocsPerRun(50, func() { kept, _ = DecodeTransaction(enc) }); got != want {
			t.Errorf("calldata of %d bytes: DecodeTransaction allocates %v times, want %v", n, got, want)
		}
	}
	b := sampleBlock()
	b.Txs = append(b.Txs, sampleTx(), sampleTx())
	enc := b.EncodeRLP()
	if got := testing.AllocsPerRun(50, func() { _, _ = DecodeBlock(enc) }); got != 3+3 {
		t.Errorf("a three-transaction block: DecodeBlock allocates %v times, want 6", got)
	}
}

// TestDeriveTxRootIsFlat: the streamed tx root is byte for byte the hash
// of the Item-tree list of transaction hashes, for an empty, a one, a two
// and a hundred transaction body, and allocates nothing whatever the
// body's length (the Item tree cost a copy per transaction hash, the flat
// buffer one allocation).
func TestDeriveTxRootIsFlat(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100} {
		txs := make([]*Transaction, n)
		items := make([]rlp.Item, n)
		for i := range txs {
			txs[i] = sampleTx()
			txs[i].Nonce = uint64(i)
			h := txs[i].Hash()
			items[i] = rlp.String(h[:])
		}
		if got, want := DeriveTxRoot(txs), Keccak(rlp.Encode(rlp.List(items...))); got != want {
			t.Fatalf("%d transactions: tx root %x, Item form %x", n, got, want)
		}
		if got := testing.AllocsPerRun(20, func() { DeriveTxRoot(txs) }); got != 0 {
			t.Errorf("%d transactions: DeriveTxRoot allocates %v times, want 0", n, got)
		}
	}
}

// The Item-tree decoders, the shipped ones until the flat decoders
// replaced them: the oracle the fuzz targets hold DecodeTransaction and
// DecodeBlock to.

func itemDecodeTransaction(data []byte) (*Transaction, error) {
	it, err := rlp.Decode(data)
	if err != nil {
		return nil, err
	}
	return transactionFromItem(it)
}

func transactionFromItem(it rlp.Item) (*Transaction, error) {
	fields, err := it.Items()
	if err != nil || len(fields) != 8 {
		return nil, ErrBadTxEncoding
	}
	var tx Transaction
	if tx.Nonce, err = fields[0].AsUint(); err != nil {
		return nil, ErrBadTxEncoding
	}
	if err := copyFixed(fields[1], tx.To[:]); err != nil {
		return nil, ErrBadTxEncoding
	}
	if tx.Value, err = fields[2].AsUint(); err != nil {
		return nil, ErrBadTxEncoding
	}
	if tx.GasPrice, err = fields[3].AsUint(); err != nil {
		return nil, ErrBadTxEncoding
	}
	if tx.GasLimit, err = fields[4].AsUint(); err != nil {
		return nil, ErrBadTxEncoding
	}
	data, err := fields[5].Bytes()
	if err != nil {
		return nil, ErrBadTxEncoding
	}
	tx.Data = append([]byte{}, data...)
	if err := copyFixed(fields[6], tx.From[:]); err != nil {
		return nil, ErrBadTxEncoding
	}
	if err := copyFixed(fields[7], tx.Sig[:]); err != nil {
		return nil, ErrBadTxEncoding
	}
	return &tx, nil
}

func copyFixed(it rlp.Item, dst []byte) error {
	b, err := it.Bytes()
	if err != nil || len(b) != len(dst) {
		return ErrBadTxEncoding
	}
	copy(dst, b)
	return nil
}

func itemDecodeBlock(data []byte) (*Block, error) {
	it, err := rlp.Decode(data)
	if err != nil {
		return nil, err
	}
	parts, err := it.Items()
	if err != nil || len(parts) != 2 {
		return nil, ErrBadBlockEncoding
	}
	fields, err := parts[0].Items()
	if err != nil || len(fields) != 11 {
		return nil, ErrBadBlockEncoding
	}
	var h Header
	for i, dst := range map[int][]byte{0: h.ParentHash[:], 2: h.StateRoot[:], 3: h.TxRoot[:], 4: h.ReceiptRoot[:], 5: h.Coinbase[:]} {
		if err := copyFixed(fields[i], dst); err != nil {
			return nil, ErrBadBlockEncoding
		}
	}
	for i, dst := range map[int]*uint64{1: &h.Number, 6: &h.Difficulty, 7: &h.GasLimit, 8: &h.GasUsed, 9: &h.Time, 10: &h.PowNonce} {
		if *dst, err = fields[i].AsUint(); err != nil {
			return nil, ErrBadBlockEncoding
		}
	}
	txItems, err := parts[1].Items()
	if err != nil {
		return nil, ErrBadBlockEncoding
	}
	txs := make([]*Transaction, len(txItems))
	for i, ti := range txItems {
		if txs[i], err = transactionFromItem(ti); err != nil {
			return nil, err
		}
	}
	return &Block{Header: &h, Txs: txs}, nil
}

// sameTx fails unless a decoded transaction has the oracle's every
// field and is frozen, with fresh derived data.
func sameTx(t *testing.T, got, want *Transaction) {
	t.Helper()
	if got.Nonce != want.Nonce || got.To != want.To || got.Value != want.Value || got.GasPrice != want.GasPrice ||
		got.GasLimit != want.GasLimit || !bytes.Equal(got.Data, want.Data) || (got.Data == nil) != (want.Data == nil) ||
		got.From != want.From || got.Sig != want.Sig {
		t.Fatalf("decoded %+v, the Item tree %+v", got, want)
	}
	if d := got.derived; d == nil || d.signed || d.hashed || d.memoized || d.sigOK.Load() != nil {
		t.Fatal("a decoded transaction is not frozen, or not freshly")
	}
}

// decodeScratch runs decode on a copy of data that it then overwrites,
// so a result that aliased its input no longer matches the oracle's.
func decodeScratch[T any](data []byte, decode func([]byte) (T, error)) (T, error) {
	in := bytes.Clone(data)
	v, err := decode(in)
	for i := range in {
		in[i] ^= 0xff
	}
	return v, err
}

// checkTxDecode is the property both wire targets hold every decoded
// transaction to: its digests are the decode's own — the encoding is the
// input, so a re-decode hashes the same — and a Copy of the memoized,
// verified instance carries neither a digest nor the verified flag.
func checkTxDecode(t *testing.T, tx *Transaction) {
	t.Helper()
	back, err := DecodeTransaction(tx.EncodeRLP())
	if err != nil {
		t.Fatalf("re-decode of a decoded transaction: %v", err)
	}
	sig, hash := tx.SigHash(), tx.Hash()
	if back.SigHash() != sig || back.Hash() != hash || hash != Keccak(tx.EncodeRLP()) {
		t.Fatal("a re-decode's digests differ")
	}
	token := new(int)
	tx.Memoize().MarkSigVerified(token)
	cp := tx.Copy()
	if cp.derived != nil || cp.Memoized() || cp.SigVerifiedBy(token) {
		t.Fatal("a copy of a memoized, verified transaction inherited its derived data")
	}
	cp.Nonce++
	if cp.Hash() == hash || cp.SigHash() == sig {
		t.Fatal("an edited copy kept the original's digests")
	}
}

// FuzzDecodeTransaction: any input is refused, or decodes to a
// transaction whose encoding is the input byte for byte — the decoder
// takes canonical encodings only — and that checkTxDecode holds. The
// Item-tree oracle refuses exactly the same inputs and reads the same
// fields, which the flat decoder's frozen result keeps after its input
// is overwritten.
// Seeds: testdata/fuzz/FuzzDecodeTransaction, which include calldata
// past the digest scratch, so the heap path is fuzzed too.
func FuzzDecodeTransaction(f *testing.F) {
	f.Add(sampleTx().EncodeRLP())
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, err := decodeScratch(data, DecodeTransaction)
		want, werr := itemDecodeTransaction(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%x: flat decoder says %v, the Item tree %v", data, err, werr)
		}
		if err != nil {
			return
		}
		sameTx(t, tx, want)
		if enc := tx.EncodeRLP(); !bytes.Equal(enc, data) {
			t.Fatalf("decoded %x, re-encoded %x", data, enc)
		}
		checkTxDecode(t, tx)
	})
}

// FuzzDecodeBlock: any input is refused, or decodes to a block whose
// encoding is the input byte for byte, whose header hash, tx root and
// transaction digests a re-decode reproduces, and whose transactions
// checkTxDecode holds; the Item-tree oracle agrees on refusal and on
// every field, as for FuzzDecodeTransaction. Seeds:
// testdata/fuzz/FuzzDecodeBlock.
func FuzzDecodeBlock(f *testing.F) {
	f.Add(sampleBlock().EncodeRLP())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeScratch(data, DecodeBlock)
		want, werr := itemDecodeBlock(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%x: flat decoder says %v, the Item tree %v", data, err, werr)
		}
		if err != nil {
			return
		}
		if *b.Header != *want.Header || len(b.Txs) != len(want.Txs) || (b.Txs == nil) != (want.Txs == nil) {
			t.Fatalf("decoded header %+v and %d transactions, the Item tree %+v and %d", *b.Header, len(b.Txs), *want.Header, len(want.Txs))
		}
		for i, tx := range b.Txs {
			sameTx(t, tx, want.Txs[i])
		}
		if enc := b.EncodeRLP(); !bytes.Equal(enc, data) {
			t.Fatalf("decoded %x, re-encoded %x", data, enc)
		}
		back, err := DecodeBlock(data)
		if err != nil {
			t.Fatalf("second decode: %v", err)
		}
		if back.Hash() != b.Hash() || back.TxRoot() != b.TxRoot() || b.TxRoot() != DeriveTxRoot(back.Txs) {
			t.Fatal("a re-decode's header hash or tx root differs")
		}
		for i, tx := range b.Txs {
			if back.Txs[i].Hash() != tx.Hash() || back.Txs[i].SigHash() != tx.SigHash() {
				t.Fatalf("tx %d: a re-decode's digests differ", i)
			}
			checkTxDecode(t, tx)
		}
	})
}
