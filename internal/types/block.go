package types

import (
	"errors"
	"sync"

	"sereth/internal/keccak"
	"sereth/internal/rlp"
)

// Header is the block header. Roots commit to the state, transaction list
// and receipt list; Difficulty and PowNonce support the optional
// proof-of-work seal.
type Header struct {
	ParentHash  Hash
	Number      uint64
	StateRoot   Hash
	TxRoot      Hash
	ReceiptRoot Hash
	Coinbase    Address
	Difficulty  uint64
	GasLimit    uint64
	GasUsed     uint64
	Time        uint64 // model-time seconds since genesis
	PowNonce    uint64
}

// ErrBadBlockEncoding reports a malformed block serialization.
var ErrBadBlockEncoding = errors.New("types: malformed block encoding")

// headerMaxSize bounds a header's encoding: four 33-byte hash strings, a
// 21-byte address string, six integers of at most 9 bytes and a 2-byte
// list header.
const headerMaxSize = 2 + 4*33 + 21 + 6*9

// appendRLP appends the header's RLP encoding to out via the flat append
// path — one buffer, no Item tree.
func (h *Header) appendRLP(out []byte) []byte {
	start := len(out)
	out = rlp.AppendString(out, h.ParentHash[:])
	out = rlp.AppendUint(out, h.Number)
	out = rlp.AppendString(out, h.StateRoot[:])
	out = rlp.AppendString(out, h.TxRoot[:])
	out = rlp.AppendString(out, h.ReceiptRoot[:])
	out = rlp.AppendString(out, h.Coinbase[:])
	out = rlp.AppendUint(out, h.Difficulty)
	out = rlp.AppendUint(out, h.GasLimit)
	out = rlp.AppendUint(out, h.GasUsed)
	out = rlp.AppendUint(out, h.Time)
	out = rlp.AppendUint(out, h.PowNonce)
	return wrapList(out, start)
}

// EncodeRLP serializes the header.
func (h *Header) EncodeRLP() []byte { return h.appendRLP(make([]byte, 0, headerMaxSize)) }

// Hash returns the block hash (Keccak-256 of the RLP header).
func (h *Header) Hash() Hash { return Keccak(h.EncodeRLP()) }

// SealHash returns the digest the PoW seal covers: the header hash with
// the nonce zeroed, so searching nonces does not change the target.
func (h *Header) SealHash() Hash {
	cp := *h
	cp.PowNonce = 0
	return cp.Hash()
}

// Block couples a header with its transaction body.
type Block struct {
	Header *Header
	Txs    []*Transaction

	// txRoot memoizes DeriveTxRoot(Txs) per block instance. In a
	// multi-peer process one shared *Block is imported by every peer, so
	// the ordered commitment is computed once instead of once per
	// importer. The cache is bound to this instance's Txs slice: a block
	// rebuilt with a different body (tampered or decoded) starts cold, so
	// a memoized root can never vouch for a list it was not derived from.
	txRootOnce sync.Once
	txRoot     Hash
}

// Hash returns the block hash.
func (b *Block) Hash() Hash { return b.Header.Hash() }

// TxRoot returns DeriveTxRoot(b.Txs), computed once per block instance
// and shared by every subsequent caller (importing peers, cache-hit
// verification). Callers must not mutate Txs after the first call. Safe
// for concurrent use.
func (b *Block) TxRoot() Hash {
	b.txRootOnce.Do(func() { b.txRoot = DeriveTxRoot(b.Txs) })
	return b.txRoot
}

// Number returns the block height.
func (b *Block) Number() uint64 { return b.Header.Number }

// EncodeRLP serializes header and body — the list of the header and the
// list of the transactions — through the flat append path, in one buffer.
func (b *Block) EncodeRLP() []byte {
	size := 2*listHeaderMaxSize + headerMaxSize
	for _, tx := range b.Txs {
		size += txMaxOverhead + len(tx.Data)
	}
	out := b.Header.appendRLP(make([]byte, 0, size))
	body := len(out)
	for _, tx := range b.Txs {
		out = tx.appendRLP(out)
	}
	return wrapList(wrapList(out, body), 0)
}

// listHeaderMaxSize is the longest list header: a tag and an 8-byte length.
const listHeaderMaxSize = 9

// wrapList turns out[start:] — the concatenated encodings of a list's
// children — into the list, splicing in before them the header whose
// size depends on theirs.
func wrapList(out []byte, start int) []byte {
	payload := len(out) - start
	var header [listHeaderMaxSize]byte
	h := rlp.AppendListHeader(header[:0], payload)
	out = append(out, h...)
	copy(out[start+len(h):], out[start:start+payload])
	copy(out[start:], h)
	return out
}

// DecodeBlock parses a block from its canonical RLP encoding. Each
// transaction is one frozen object, as DecodeTransaction returns it.
func DecodeBlock(data []byte) (*Block, error) {
	r := fields{p: data}
	parts := r.list()
	f := parts.list()
	h := new(Header)
	f.fixed(h.ParentHash[:])
	h.Number = f.uint()
	f.fixed(h.StateRoot[:])
	f.fixed(h.TxRoot[:])
	f.fixed(h.ReceiptRoot[:])
	f.fixed(h.Coinbase[:])
	h.Difficulty = f.uint()
	h.GasLimit = f.uint()
	h.GasUsed = f.uint()
	h.Time = f.uint()
	h.PowNonce = f.uint()
	body := parts.list()
	n := 0
	for count := body; len(count.p) > 0 && !count.bad; n++ {
		count.list()
	}
	txs := make([]*Transaction, n)
	for i := range txs {
		txs[i] = body.tx()
	}
	if !f.done() || !body.done() || !parts.done() || !r.done() {
		return nil, ErrBadBlockEncoding
	}
	return &Block{Header: h, Txs: txs}, nil
}

// DeriveTxRoot computes the ordered commitment over a transaction list.
// It hashes the RLP list of transaction hashes; a Merkle trie root over
// index→tx is equivalent for integrity purposes and this form is cheaper
// to recompute during validation. The list streams into a hasher on the
// stack — every element is a 33-byte string, so the header is known
// before the first — and allocates nothing, whatever the body's length.
func DeriveTxRoot(txs []*Transaction) Hash {
	var h keccak.Hasher
	var buf [33]byte
	h.Write(rlp.AppendListHeader(buf[:0], 33*len(txs)))
	for _, tx := range txs {
		hash := tx.Hash()
		h.Write(rlp.AppendString(buf[:0], hash[:]))
	}
	return h.Sum256()
}

// DeriveReceiptRoot computes the ordered commitment over the receipts of
// block number, whose body is txs (receipts[i] is txs[i]'s): one digest
// over the RLP list of the receipts' encodings, each of which carries its
// transaction's hash, the block number and its index. The list streams
// into a hasher on the stack — its length summed from the receipts'
// sizes, each receipt encoded into one stack buffer — and allocates
// nothing.
func DeriveReceiptRoot(number uint64, txs []*Transaction, receipts []Receipt) Hash {
	payload := 0
	for i := range receipts {
		payload += receipts[i].rlpSize(number, i)
	}
	var h keccak.Hasher
	var buf [receiptMaxSize]byte
	h.Write(rlp.AppendListHeader(buf[:0], payload))
	for i := range receipts {
		h.Write(receipts[i].appendRLP(buf[:0], txs[i].Hash(), number, i))
	}
	return h.Sum256()
}

// Bytes returns the hash as a byte slice (helper for RLP interop).
func (h Hash) Bytes() []byte { return append([]byte{}, h[:]...) }
