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

// TestDeriveTxRootIsFlat: the flat tx root is byte for byte the hash of
// the Item-tree list of transaction hashes, for an empty, a one, a two
// and a hundred transaction body, and costs one allocation whatever the
// body's length (the Item tree cost a copy per transaction hash).
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
		if got := testing.AllocsPerRun(20, func() { DeriveTxRoot(txs) }); got != 1 {
			t.Errorf("%d transactions: DeriveTxRoot allocates %v times, want 1", n, got)
		}
	}
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
// takes canonical encodings only — and that checkTxDecode holds.
// Seeds: testdata/fuzz/FuzzDecodeTransaction, which include calldata
// past the digest scratch, so the heap path is fuzzed too.
func FuzzDecodeTransaction(f *testing.F) {
	f.Add(sampleTx().EncodeRLP())
	f.Fuzz(func(t *testing.T, data []byte) {
		tx, err := DecodeTransaction(data)
		if err != nil {
			return
		}
		if enc := tx.EncodeRLP(); !bytes.Equal(enc, data) {
			t.Fatalf("decoded %x, re-encoded %x", data, enc)
		}
		checkTxDecode(t, tx)
	})
}

// FuzzDecodeBlock: any input is refused, or decodes to a block whose
// encoding is the input byte for byte, whose header hash, tx root and
// transaction digests a re-decode reproduces, and whose transactions
// checkTxDecode holds. Seeds: testdata/fuzz/FuzzDecodeBlock.
func FuzzDecodeBlock(f *testing.F) {
	f.Add(sampleBlock().EncodeRLP())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBlock(data)
		if err != nil {
			return
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
