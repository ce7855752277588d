package types

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"sereth/internal/rlp"
)

func TestWordUint64RoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 255, 1 << 40, ^uint64(0)} {
		w := WordFromUint64(v)
		got, ok := w.Uint64()
		if !ok || got != v {
			t.Errorf("round trip %d -> %d ok=%v", v, got, ok)
		}
	}
	var w Word
	w[0] = 1 // high byte set: does not fit in uint64
	if _, ok := w.Uint64(); ok {
		t.Error("overflow not detected")
	}
}

func TestAddressWordRoundTrip(t *testing.T) {
	var a Address
	for i := range a {
		a[i] = byte(i + 1)
	}
	if got := a.Word().Address(); got != a {
		t.Errorf("round trip: %v != %v", got, a)
	}
	// The word must be left-padded.
	w := a.Word()
	for i := 0; i < WordLength-AddressLength; i++ {
		if w[i] != 0 {
			t.Error("padding not zero")
		}
	}
}

func TestHexParsing(t *testing.T) {
	a, err := HexToAddress("0x00000000000000000000000000000000000000Ff")
	if err != nil {
		t.Fatal(err)
	}
	if a[19] != 0xff {
		t.Errorf("low byte = %x", a[19])
	}
	// Short input is left-padded.
	b, err := HexToAddress("ff")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("short form differs from padded form")
	}
	if _, err := HexToAddress("0xzz"); err == nil {
		t.Error("bad hex accepted")
	}
	if _, err := HexToHash("0x" + string(bytes.Repeat([]byte("ab"), 40))); err == nil {
		t.Error("over-long hash accepted")
	}
	h, err := HexToHash("0x01")
	if err != nil || h[31] != 1 {
		t.Errorf("hash parse: %v %v", h, err)
	}
}

func TestNextMarkChaining(t *testing.T) {
	// mark' = Keccak(prevMark ‖ value): deterministic and order-sensitive.
	prev := WordFromUint64(5)
	val := WordFromUint64(7)
	m1 := NextMark(prev, val)
	m2 := NextMark(prev, val)
	if m1 != m2 {
		t.Error("NextMark not deterministic")
	}
	if NextMark(val, prev) == m1 {
		t.Error("NextMark ignores argument order")
	}
	if m1.IsZero() {
		t.Error("mark is zero")
	}
}

func TestSelectorsDistinct(t *testing.T) {
	sigs := []string{"set(bytes32[3])", "buy(bytes32[3])", "get(bytes32[3])", "mark(bytes32[3])"}
	seen := map[Selector]string{}
	for _, sig := range sigs {
		sel := SelectorFor(sig)
		if prev, dup := seen[sel]; dup {
			t.Errorf("selector collision between %q and %q", prev, sig)
		}
		seen[sel] = sig
	}
}

func TestEncodeDecodeFPV(t *testing.T) {
	sel := SelectorFor("set(bytes32[3])")
	fpv := FPV{Flag: FlagChain, PrevMark: WordFromUint64(42), Value: WordFromUint64(99)}
	data := EncodeCall(sel, fpv.Flag, fpv.PrevMark, fpv.Value)
	gotSel, ok := CallSelector(data)
	if !ok || gotSel != sel {
		t.Error("selector round trip failed")
	}
	got, err := DecodeFPV(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != fpv {
		t.Errorf("FPV round trip: %+v != %+v", got, fpv)
	}
}

func TestDecodeFPVShort(t *testing.T) {
	if _, err := DecodeFPV([]byte{1, 2, 3}); err == nil {
		t.Error("short calldata accepted")
	}
	if _, ok := CallSelector([]byte{1}); ok {
		t.Error("short selector accepted")
	}
}

func sampleTx() *Transaction {
	var to Address
	to[19] = 0xaa
	var from Address
	from[19] = 0xbb
	return &Transaction{
		Nonce:    7,
		To:       to,
		Value:    0,
		GasPrice: 100,
		GasLimit: 90000,
		Data:     EncodeCall(SelectorFor("set(bytes32[3])"), FlagHead, WordFromUint64(1), WordFromUint64(2)),
		From:     from,
		Sig:      Keccak([]byte("sig")),
	}
}

func TestTransactionRoundTrip(t *testing.T) {
	tx := sampleTx()
	back, err := DecodeTransaction(tx.EncodeRLP())
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != tx.Hash() {
		t.Error("hash changed after round trip")
	}
	if back.Nonce != tx.Nonce || back.From != tx.From || !bytes.Equal(back.Data, tx.Data) {
		t.Error("fields corrupted")
	}
}

func TestTransactionHashDistinguishesSig(t *testing.T) {
	tx := sampleTx()
	sigHash := tx.SigHash()
	tx2 := tx.Copy()
	tx2.Sig = Keccak([]byte("other"))
	if tx.Hash() == tx2.Hash() {
		t.Error("Hash must cover the signature")
	}
	if sigHash != tx2.SigHash() {
		t.Error("SigHash must not cover the signature")
	}
	tx3 := tx.Copy()
	tx3.Data[5] ^= 0xff
	if tx3.SigHash() == sigHash {
		t.Error("SigHash must cover calldata (RAA tamper evidence)")
	}
}

func TestTransactionCopyIsDeep(t *testing.T) {
	tx := sampleTx()
	cp := tx.Copy()
	cp.Data[0] ^= 0xff
	if tx.Data[0] == cp.Data[0] {
		t.Error("Copy shares Data slice")
	}
}

func TestDecodeTransactionErrors(t *testing.T) {
	if _, err := DecodeTransaction([]byte{0xc0}); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := DecodeTransaction([]byte{0x01}); err == nil {
		t.Error("non-list accepted")
	}
}

func sampleBlock() *Block {
	txs := []*Transaction{sampleTx()}
	h := &Header{
		ParentHash: Keccak([]byte("parent")),
		Number:     9,
		StateRoot:  Keccak([]byte("state")),
		TxRoot:     DeriveTxRoot(txs),
		Coinbase:   Address{1},
		Difficulty: 1000,
		GasLimit:   8_000_000,
		GasUsed:    21_000,
		Time:       120,
		PowNonce:   42,
	}
	return &Block{Header: h, Txs: txs}
}

func TestBlockRoundTrip(t *testing.T) {
	b := sampleBlock()
	back, err := DecodeBlock(b.EncodeRLP())
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != b.Hash() {
		t.Error("block hash changed after round trip")
	}
	if len(back.Txs) != 1 || back.Txs[0].Hash() != b.Txs[0].Hash() {
		t.Error("body corrupted")
	}
}

func TestSealHashIgnoresNonce(t *testing.T) {
	b := sampleBlock()
	h1 := b.Header.SealHash()
	cp := *b.Header
	cp.PowNonce = 999
	if cp.SealHash() != h1 {
		t.Error("SealHash depends on nonce")
	}
	if cp.Hash() == b.Header.Hash() {
		t.Error("Hash must cover nonce")
	}
}

// TestMemoizedMarkMatchesNextMark pins the fused mark derivation (one
// contiguous absorb of calldata[36:100]) bit-identical to the spec form
// NextMark(PrevMark, Value) = Keccak(prevMark ‖ value).
func TestMemoizedMarkMatchesNextMark(t *testing.T) {
	for i := uint64(0); i < 64; i++ {
		prev, value := WordFromUint64(i*31+7), WordFromUint64(i*17+3)
		tx := &Transaction{
			Nonce: i,
			Data:  EncodeCall(SelectorFor("set(bytes32[3])"), FlagChain, prev, value),
		}
		tx.Memoize()
		mark, ok := tx.Mark()
		if !ok {
			t.Fatalf("tx %d: memoized mark missing", i)
		}
		if want := NextMark(prev, value); mark != want {
			t.Fatalf("tx %d: fused mark %s != NextMark %s", i, mark.Hex(), want.Hex())
		}
	}
}

func TestBlockTxRootMemoized(t *testing.T) {
	b := sampleBlock()
	want := DeriveTxRoot(b.Txs)
	if b.TxRoot() != want {
		t.Fatal("TxRoot differs from DeriveTxRoot")
	}
	if b.TxRoot() != want {
		t.Fatal("second TxRoot call changed the memoized value")
	}
	// Concurrent readers of a shared block must agree (the multi-peer
	// import path shares one *Block across every importing chain).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.TxRoot() != want {
				t.Error("concurrent TxRoot diverged")
			}
		}()
	}
	wg.Wait()
}

// TestBlockTxRootNotSharedAcrossBodies is the memoization-safety
// property the ExecCache's TxRoot check rests on: a block rebuilt with a
// tampered transaction list is a new instance with a cold cache, so its
// root is derived from the tampered list and can never echo the
// original body's commitment.
func TestBlockTxRootNotSharedAcrossBodies(t *testing.T) {
	b := sampleBlock()
	orig := b.TxRoot() // warm the original's cache
	swapped := sampleTx()
	swapped.Nonce = 1234
	tampered := &Block{Header: b.Header, Txs: []*Transaction{swapped}}
	if tampered.TxRoot() == orig {
		t.Fatal("tampered body inherited the memoized root")
	}
	if tampered.TxRoot() != DeriveTxRoot(tampered.Txs) {
		t.Fatal("tampered block's root not derived from its own txs")
	}
	if b.TxRoot() != orig {
		t.Fatal("original block's memoized root was disturbed")
	}
}

func TestDeriveRootsOrderSensitive(t *testing.T) {
	tx1 := sampleTx()
	tx2 := sampleTx()
	tx2.Nonce = 8
	r1 := DeriveTxRoot([]*Transaction{tx1, tx2})
	r2 := DeriveTxRoot([]*Transaction{tx2, tx1})
	if r1 == r2 {
		t.Error("tx root ignores order")
	}
	rcpt1 := Receipt{Status: StatusSucceeded}
	rcpt2 := Receipt{Status: StatusFailed}
	if DeriveReceiptRoot(1, []*Transaction{tx1, tx2}, []Receipt{rcpt1, rcpt2}) == DeriveReceiptRoot(1, []*Transaction{tx2, tx1}, []Receipt{rcpt2, rcpt1}) {
		t.Error("receipt root ignores order")
	}
}

func TestReceiptStatusString(t *testing.T) {
	if StatusSucceeded.String() != "succeeded" || StatusFailed.String() != "failed" {
		t.Error("status strings wrong")
	}
}

func TestQuickTxRoundTrip(t *testing.T) {
	f := func(nonce, value, gasPrice, gasLimit uint64, data []byte, fromRaw, toRaw [20]byte) bool {
		tx := &Transaction{
			Nonce: nonce, Value: value, GasPrice: gasPrice, GasLimit: gasLimit,
			Data: data, From: Address(fromRaw), To: Address(toRaw),
		}
		back, err := DecodeTransaction(tx.EncodeRLP())
		return err == nil && back.Hash() == tx.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMemoizeCachesDerivedData(t *testing.T) {
	contract := Address{19: 0xcc}
	sel := SelectorFor("set(bytes32[3])")
	prev := ZeroWord
	value := WordFromUint64(42)
	tx := &Transaction{
		Nonce: 7, To: contract, GasPrice: 10, GasLimit: 100,
		Data: EncodeCall(sel, FlagHead, prev, value),
		From: Address{19: 0x01},
	}
	wantHash := tx.Hash()
	wantFPV, wantErr := tx.FPV()
	wantMark, wantOK := tx.Mark()
	if wantErr != nil || !wantOK {
		t.Fatal("test setup: tx should carry an FPV")
	}
	if tx.Memoized() {
		t.Fatal("fresh tx claims memoization")
	}
	tx.Memoize()
	if !tx.Memoized() {
		t.Fatal("Memoize did not stick")
	}
	if tx.Hash() != wantHash {
		t.Error("memoized hash differs")
	}
	if fpv, err := tx.FPV(); err != nil || fpv != wantFPV {
		t.Error("memoized FPV differs")
	}
	if gotSel, ok := tx.Selector(); !ok || gotSel != sel {
		t.Error("memoized selector differs")
	}
	if mark, ok := tx.Mark(); !ok || mark != wantMark {
		t.Error("memoized mark differs")
	}
	if wantMark != NextMark(prev, value) {
		t.Error("mark is not the HMS chaining rule")
	}
	// Copies are mutable, so they must not inherit the frozen cache.
	cp := tx.Copy()
	if cp.Memoized() {
		t.Error("copy shares the frozen derived cache")
	}
	if cp.Hash() != wantHash {
		t.Error("copy hash differs before mutation")
	}
	cp.Data[len(cp.Data)-1] ^= 0xff
	if cp.Hash() == wantHash {
		t.Error("mutated copy kept the original hash")
	}
}

func TestMarkWithoutFPV(t *testing.T) {
	tx := &Transaction{To: Address{19: 0xcc}, Data: []byte{1, 2, 3}}
	if _, ok := tx.Mark(); ok {
		t.Error("short calldata produced a mark")
	}
	tx.Memoize()
	if _, ok := tx.Mark(); ok {
		t.Error("memoized short calldata produced a mark")
	}
	if _, err := tx.FPV(); err == nil {
		t.Error("memoized short calldata decoded an FPV")
	}
}

// fullReceipt is a receipt with the fields its block gives it: the
// encoding the receipt root commits to.
type fullReceipt struct {
	TxHash Hash
	Receipt
	BlockNumber uint64
	TxIndex     int
}

// itemReceipt is the Item-tree form of a full receipt's encoding.
func itemReceipt(r fullReceipt) []byte {
	return rlp.Encode(rlp.List(
		rlp.String(r.TxHash[:]),
		rlp.Uint(uint64(r.Status)),
		rlp.Uint(r.GasUsed),
		rlp.String(r.ReturnValue[:]),
		rlp.Uint(r.BlockNumber),
		rlp.Uint(uint64(r.TxIndex)),
	))
}

// receiptCases spans every field's range, the hash's and the index's
// included.
func receiptCases() []fullReceipt {
	max := ^uint64(0)
	return []fullReceipt{
		{},
		{Receipt: Receipt{Status: StatusSucceeded, GasUsed: 1}, BlockNumber: 1, TxIndex: 1},
		{TxHash: Hash{0xff}, Receipt: Receipt{GasUsed: 21000, ReturnValue: WordFromUint64(42)}, BlockNumber: 128, TxIndex: 99},
		{TxHash: Hash{1, 2, 3}, Receipt: Receipt{Status: StatusSucceeded, GasUsed: max, ReturnValue: Word{0xaa}}, BlockNumber: max, TxIndex: 1<<31 - 1},
	}
}

// TestReceiptAppendRLPMatchesItemTree pins the flat header-patching
// receipt encoder byte-identical to the Item-tree form across the field
// extremes (the patch assumes the payload always takes the two-byte
// long-list header; the hash fields guarantee it), and the size the
// receipt root sums to what it writes.
func TestReceiptAppendRLPMatchesItemTree(t *testing.T) {
	for i, r := range receiptCases() {
		want := itemReceipt(r)
		if got := r.appendRLP(nil, r.TxHash, r.BlockNumber, r.TxIndex); !bytes.Equal(got, want) {
			t.Errorf("receipt %d: appendRLP %x, item tree %x", i, got, want)
		}
		if got := r.rlpSize(r.BlockNumber, r.TxIndex); got != len(want) {
			t.Errorf("receipt %d: rlpSize %d, item tree %d bytes", i, got, len(want))
		}
		// Appending after existing bytes must not disturb the prefix.
		pre := []byte{0xde, 0xad}
		if got := r.appendRLP(pre, r.TxHash, r.BlockNumber, r.TxIndex); !bytes.Equal(got[:2], pre) || !bytes.Equal(got[2:], want) {
			t.Errorf("receipt %d: appendRLP with prefix diverged", i)
		}
	}
}

// TestDeriveReceiptRootStreams: the streamed receipt root is the digest
// of the flat list the root was before it streamed — the receipts'
// full encodings, with their transactions' hashes, block number and
// indices, in one buffer — for an empty, a one, a two, a hundred and a
// two hundred receipt block (indices past 127 take two bytes), at block
// numbers across the integer widths, and over the encoder's field-range
// cases; and it allocates nothing.
func TestDeriveReceiptRootStreams(t *testing.T) {
	flat := func(number uint64, txs []*Transaction, receipts []Receipt) Hash {
		var out []byte
		for i := range receipts {
			out = append(out, itemReceipt(fullReceipt{txs[i].Hash(), receipts[i], number, i})...)
		}
		return Keccak(rlp.AppendList(nil, out))
	}
	for _, n := range []int{0, 1, 2, 100, 200} {
		txs := make([]*Transaction, n)
		receipts := make([]Receipt, n)
		for i := range txs {
			txs[i] = sampleTx()
			txs[i].Nonce = uint64(i)
			txs[i].Memoize()
			receipts[i] = Receipt{Status: ReceiptStatus(i % 2), GasUsed: 21000 + uint64(i)*977, ReturnValue: WordFromUint64(uint64(i))}
		}
		for _, number := range []uint64{0, 1, 0x80, 1 << 40, ^uint64(0)} {
			if got, want := DeriveReceiptRoot(number, txs, receipts), flat(number, txs, receipts); got != want {
				t.Fatalf("%d receipts at block %d: root %x, flat buffer %x", n, number, got, want)
			}
		}
		if got := testing.AllocsPerRun(20, func() { DeriveReceiptRoot(7, txs, receipts) }); got != 0 {
			t.Errorf("%d receipts: DeriveReceiptRoot allocates %v times, want 0", n, got)
		}
	}
	// The field-range cases as one block's receipts, each of a
	// transaction with the case's hash, at each case's block number.
	cases := receiptCases()
	txs := make([]*Transaction, len(cases))
	receipts := make([]Receipt, len(cases))
	for i, c := range cases {
		txs[i] = &Transaction{derived: &txDerived{hash: c.TxHash, hashed: true}}
		receipts[i] = c.Receipt
	}
	for _, c := range cases {
		if got, want := DeriveReceiptRoot(c.BlockNumber, txs, receipts), flat(c.BlockNumber, txs, receipts); got != want {
			t.Errorf("field-range cases at block %d: root %x, flat buffer %x", c.BlockNumber, got, want)
		}
	}
}
