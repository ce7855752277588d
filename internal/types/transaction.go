package types

import (
	"errors"
	"sync/atomic"

	"sereth/internal/keccak"
	"sereth/internal/rlp"
)

// Transaction is a signed state-transition request. Field semantics follow
// Ethereum's legacy transaction type; Value and GasPrice are uint64 because
// the evaluation workloads never exceed 64-bit magnitudes (a deliberate
// substitution for Ethereum's 256-bit amounts).
type Transaction struct {
	Nonce    uint64  // per-sender sequence number; miners must respect it
	To       Address // target contract (ZeroAddress = contract creation)
	Value    uint64  // wei transferred
	GasPrice uint64  // fee per gas unit; baseline miners sort by this
	GasLimit uint64  // execution budget
	Data     []byte  // calldata: selector ‖ argument words
	From     Address // sender, bound by the signature
	Sig      Hash    // deterministic keyed-Keccak signature (see wallet)

	// derived caches immutable per-transaction data (signing digest,
	// identity hash, selector, FPV, HMS mark). It is populated by Freeze
	// and Memoize and dropped by Copy (copies are mutable); a transaction
	// must not be mutated once frozen.
	derived *txDerived
}

// txDerived holds data computed once from a frozen transaction: Freeze
// writes the selector and FPV, the first SigHash and the first Hash their
// digests, Memoize whatever is left. Until memoized is set the instance
// is private to whoever froze it; after that no field is written again,
// so concurrent readers need no synchronization.
type txDerived struct {
	sigHash  Hash
	hash     Hash
	signed   bool // sigHash is derived
	hashed   bool // hash is derived
	memoized bool
	sel      Selector
	selOK    bool
	fpv      FPV
	fpvErr   error
	mark     Word // NextMark(fpv.PrevMark, fpv.Value); zero unless fpvErr == nil
	// prevDigest is Keccak over the 32-byte prevMark calldata region —
	// the digest the contract's mark check derives from the same bytes.
	// Deriving it at admission lets the interpreter elide that SHA3 too
	// (and, on the success path, the equal-content hash of the stored
	// mark). Zero unless fpvErr == nil.
	prevDigest Word

	// sigOK publishes the identity token of the verifier that has
	// already checked this frozen instance's signature (in practice the
	// *wallet.Registry pointer). Unlike the fields above it is written
	// after publication, hence the atomic. Because Copy drops the whole
	// derived block, a mutated copy can never inherit the flag — the
	// invariant that keeps cached verification forge-safe.
	sigOK atomic.Value
}

// Freeze makes the transaction immutable: callers must not mutate any
// field afterwards. It costs no digest, but from now on the first SigHash
// and the first Hash keep what they derive and MarkSigVerified records a
// verified signature, so nothing is derived or checked twice. Those first
// calls write: the instance is private to its owner until Memoize.
func (tx *Transaction) Freeze() *Transaction {
	if tx.derived == nil {
		tx.derived = new(txDerived)
		tx.derived.decode(tx.Data)
	}
	return tx
}

// decode writes what Freeze derives from the calldata: selector and FPV.
func (d *txDerived) decode(data []byte) {
	d.sel, d.selOK = CallSelector(data)
	d.fpv, d.fpvErr = DecodeFPV(data)
}

// Memoize freezes the transaction and caches all of its derived data —
// signing digest, identity hash, calldata selector, FPV tuple, HMS mark
// and mark-check digest, each derived once — so later accessors are
// allocation-free lookups safe for concurrent use. The transaction pool
// memoizes every transaction it admits; Memoize itself is not safe for
// concurrent use with other accessors, so call it before sharing the
// transaction. Returns tx for chaining.
func (tx *Transaction) Memoize() *Transaction {
	d := tx.Freeze().derived
	if d.memoized {
		return tx
	}
	tx.SigHash()
	tx.Hash()
	if d.fpvErr == nil {
		// Fused mark derivation: mark = Keccak(prevMark ‖ value), and in
		// the calldata layout selector ‖ flag ‖ prevMark ‖ value those 64
		// bytes are contiguous — absorb them straight from the payload the
		// identity-hash sponge just consumed, instead of re-staging the
		// two words through an FPV copy. Equals NextMark(PrevMark, Value)
		// bit-for-bit (pinned by TestMemoizedMarkMatchesNextMark).
		d.mark = Word(keccak.Sum256(tx.Data[SelectorLength+WordLength : SelectorLength+3*WordLength]))
		// The mark-check digest over the 32-byte prevMark region. One
		// extra sponge at admission — paid once per transaction
		// process-wide (frozen instances are shared across pools) —
		// erases one SHA3 from every subsequent execution of the tx.
		d.prevDigest = Word(keccak.Sum256(tx.Data[SelectorLength+WordLength : SelectorLength+2*WordLength]))
	}
	d.memoized = true
	return tx
}

// Memoized reports whether all derived data is cached and safe to share.
func (tx *Transaction) Memoized() bool { return tx.derived != nil && tx.derived.memoized }

// Errors for transaction decoding.
var (
	ErrBadTxEncoding = errors.New("types: malformed transaction encoding")
)

// SigHash returns the digest a sender signs: the hash of the transaction
// content excluding the signature itself. Frozen transactions derive it
// once and serve it from the derived cache — a block body's shared frozen
// instances are signature-verified by every importing peer, and
// re-encoding the content per verification dominated the replay profile.
func (tx *Transaction) SigHash() Hash {
	if d := tx.derived; d != nil && d.signed {
		return d.sigHash
	}
	return tx.computeSigHash()
}

// appendSigPayload appends the encodings of the signed fields — the
// payload of the SigHash list, and a strict prefix of the identity-hash
// list's payload (which adds only the signature). Byte-identical to the
// Item-tree forms those hashes originally used.
func (tx *Transaction) appendSigPayload(out []byte) []byte {
	out = rlp.AppendUint(out, tx.Nonce)
	out = rlp.AppendString(out, tx.To[:])
	out = rlp.AppendUint(out, tx.Value)
	out = rlp.AppendUint(out, tx.GasPrice)
	out = rlp.AppendUint(out, tx.GasLimit)
	out = rlp.AppendString(out, tx.Data)
	out = rlp.AppendString(out, tx.From[:])
	return out
}

func (tx *Transaction) computeSigHash() Hash {
	var scratch [txScratchSize]byte
	hash := Keccak(wrapList(tx.appendSigPayload(tx.digestBuf(scratch[:0])), 0))
	if d := tx.derived; d != nil {
		d.sigHash, d.signed = hash, true
	}
	return hash
}

// Hash returns the transaction identity hash (content + signature),
// derived on a frozen transaction's first call and cached after.
func (tx *Transaction) Hash() Hash {
	if d := tx.derived; d != nil && d.hashed {
		return d.hash
	}
	return tx.computeHash()
}

func (tx *Transaction) computeHash() Hash {
	var scratch [txScratchSize]byte
	hash := Keccak(tx.appendRLP(tx.digestBuf(scratch[:0])))
	if d := tx.derived; d != nil {
		d.hash, d.hashed = hash, true
	}
	return hash
}

// txMaxOverhead bounds a transaction's encoding less its calldata: four
// integers of at most 9 bytes, two 21-byte addresses, the 33-byte
// signature, and the list and calldata headers.
const txMaxOverhead = 4*9 + 2*21 + 33 + 2*listHeaderMaxSize

// txScratchSize is the stack buffer a digest encodes into: it holds the
// encoding of any transaction whose calldata fits frozenCalldata.
const txScratchSize = txMaxOverhead + frozenCalldata

// digestBuf returns scratch when the encoding fits it, and a heap buffer
// of the encoding's size when the calldata is longer.
func (tx *Transaction) digestBuf(scratch []byte) []byte {
	if n := txMaxOverhead + len(tx.Data); n > cap(scratch) {
		return make([]byte, 0, n)
	}
	return scratch
}

// appendRLP appends the transaction's RLP encoding — the list of the
// signed fields and the signature — to out.
func (tx *Transaction) appendRLP(out []byte) []byte {
	start := len(out)
	return wrapList(rlp.AppendString(tx.appendSigPayload(out), tx.Sig[:]), start)
}

// EncodeRLP serializes the transaction.
func (tx *Transaction) EncodeRLP() []byte {
	return tx.appendRLP(make([]byte, 0, txMaxOverhead+len(tx.Data)))
}

// DecodeTransaction parses a transaction from its canonical RLP encoding
// into one frozen object (see FrozenCopy) that shares no byte with data.
func DecodeTransaction(data []byte) (*Transaction, error) {
	r := fields{p: data}
	if tx := r.tx(); r.done() {
		return tx, nil
	}
	return nil, ErrBadTxEncoding
}

// fields reads RLP values off the front of p for the flat decoders. A
// value that is not what the caller wants sets bad, after which what the
// reads return means nothing: callers check done at the end.
type fields struct {
	p   []byte
	bad bool
}

// next splits off the next value, which must be of the given kind.
func (r *fields) next(want rlp.Kind) []byte {
	kind, content, rest, err := rlp.Split(r.p)
	if r.bad = r.bad || err != nil || kind != want; r.bad {
		return nil
	}
	r.p = rest
	return content
}

// list returns a reader over the next value, a list's, payload.
func (r *fields) list() fields {
	p := r.next(rlp.KindList)
	return fields{p: p, bad: r.bad}
}

// uint reads a canonical integer of at most 64 bits.
func (r *fields) uint() uint64 {
	b := r.next(rlp.KindString)
	if len(b) > 8 || len(b) > 0 && b[0] == 0 {
		r.bad = true
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

// fixed reads a string of exactly len(dst) bytes into dst.
func (r *fields) fixed(dst []byte) {
	b := r.next(rlp.KindString)
	r.bad = r.bad || len(b) != len(dst)
	copy(dst, b)
}

// done reports whether every read succeeded and nothing is left.
func (r *fields) done() bool { return !r.bad && len(r.p) == 0 }

// tx reads a transaction, the list of its eight fields, into a frozen
// copy: one allocation while its calldata fits frozenCalldata.
func (r *fields) tx() *Transaction {
	f := r.list()
	var tx Transaction
	tx.Nonce = f.uint()
	f.fixed(tx.To[:])
	tx.Value = f.uint()
	tx.GasPrice = f.uint()
	tx.GasLimit = f.uint()
	data := f.next(rlp.KindString)
	f.fixed(tx.From[:])
	f.fixed(tx.Sig[:])
	if r.bad = r.bad || !f.done(); r.bad {
		return nil
	}
	return frozen(&tx, data)
}

// FPV extracts the HMS argument tuple from the transaction calldata,
// cached when the transaction is frozen.
func (tx *Transaction) FPV() (FPV, error) {
	if d := tx.derived; d != nil {
		return d.fpv, d.fpvErr
	}
	return DecodeFPV(tx.Data)
}

// Selector returns the 4-byte function selector of the calldata, cached
// when the transaction is frozen.
func (tx *Transaction) Selector() (Selector, bool) {
	if d := tx.derived; d != nil {
		return d.sel, d.selOK
	}
	return CallSelector(tx.Data)
}

// Mark returns the transaction's HMS mark, NextMark(FPV.PrevMark,
// FPV.Value), cached when the transaction is memoized. ok is false when
// the calldata does not carry an FPV tuple.
func (tx *Transaction) Mark() (Word, bool) {
	if d := tx.derived; d != nil && d.memoized {
		return d.mark, d.fpvErr == nil
	}
	fpv, err := DecodeFPV(tx.Data)
	if err != nil {
		return Word{}, false
	}
	return NextMark(fpv.PrevMark, fpv.Value), true
}

// MarkHint exposes the admission-derived hash-elision hint: the exact
// calldata region (the contiguous 64-byte prevMark ‖ value slice) whose
// Keccak-256 digest the memoized mark is, plus that mark. The chain
// processor feeds it to the interpreter so the contract's own mark
// derivation over those same bytes becomes a cache hit. ok is false on
// unmemoized transactions and on calldata without an FPV tuple. The
// returned slice aliases tx.Data; memoized transactions are frozen, so
// callers must treat it as read-only.
func (tx *Transaction) MarkHint() (input []byte, mark Word, ok bool) {
	d := tx.derived
	if d == nil || !d.memoized || d.fpvErr != nil {
		return nil, Word{}, false
	}
	return tx.Data[SelectorLength+WordLength : SelectorLength+3*WordLength], d.mark, true
}

// PrevHint is MarkHint's companion for the mark-check digest: the
// 32-byte prevMark calldata region and its Keccak-256 digest, derived
// at admission. Same aliasing and ok semantics as MarkHint.
func (tx *Transaction) PrevHint() (input []byte, digest Word, ok bool) {
	d := tx.derived
	if d == nil || !d.memoized || d.fpvErr != nil {
		return nil, Word{}, false
	}
	return tx.Data[SelectorLength+WordLength : SelectorLength+2*WordLength], d.prevDigest, true
}

// SigVerifiedBy reports whether the given verifier token has already
// validated this frozen transaction's signature (see MarkSigVerified).
// Always false on unfrozen transactions.
func (tx *Transaction) SigVerifiedBy(token any) bool {
	d := tx.derived
	if d == nil {
		return false
	}
	v := d.sigOK.Load()
	return v != nil && v == token
}

// MarkSigVerified records that the verifier identified by token checked
// the signature of this frozen instance, so the Nth verification of a
// shared gossiped transaction is a pointer compare instead of a keyed
// Keccak. token must be comparable and identify both the verifier and
// its key material (the wallet registry passes its own pointer, sound
// because registered keys are only ever added, never replaced). No-op
// on unfrozen transactions: a mutable copy must not carry the flag.
// Tokens of different concrete types must not be mixed on one instance.
func (tx *Transaction) MarkSigVerified(token any) {
	if d := tx.derived; d != nil {
		d.sigOK.Store(token)
	}
}

// Copy returns a deep, unfrozen copy of the transaction. The derived
// cache is deliberately not carried over: a copy is mutable (callers
// edit copies to build replacements), and a shared cache would serve
// stale hashes after such edits. Hot paths that want cached derived
// data share the pool's frozen instances via Snapshot instead.
func (tx *Transaction) Copy() *Transaction {
	cp := *tx
	cp.Data = append([]byte{}, tx.Data...)
	cp.derived = nil
	return &cp
}

// frozenCalldata is the calldata FrozenCopy keeps inline and a digest
// encodes on the stack: every call this repository makes fits (a Sereth
// call is 100 bytes).
const frozenCalldata = 128

// frozenTx is what FrozenCopy allocates: the copy, its derived block and
// its calldata, in one object.
type frozenTx struct {
	tx   Transaction
	d    txDerived
	data [frozenCalldata]byte
}

// FrozenCopy returns tx.Copy().Freeze() in one allocation when the
// calldata fits 128 bytes, and two when it is longer: the transaction,
// its derived block and its calldata live in one object. Like Copy it
// carries no digest and no verified flag from tx, and like Freeze the
// result must not be mutated. The pool and the network copy every
// caller-owned transaction they keep this way, and the wire decoders
// build every transaction they return so.
func FrozenCopy(tx *Transaction) *Transaction { return frozen(tx, tx.Data) }

// frozen is FrozenCopy with data, which it copies, for calldata.
func frozen(tx *Transaction, data []byte) *Transaction {
	cp := newFrozen(tx, len(data))
	copy(cp.Data, data)
	cp.derived.decode(cp.Data)
	return cp
}

// newFrozen returns a copy of tx in frozenTx's layout, with n bytes of
// calldata for the caller to fill and a derived block for it to decode
// them into.
func newFrozen(tx *Transaction, n int) *Transaction {
	f := &frozenTx{tx: *tx}
	cp := &f.tx
	if n <= frozenCalldata {
		cp.Data = f.data[:n:n]
	} else {
		cp.Data = make([]byte, n)
	}
	cp.derived = &f.d
	return cp
}

// SignedCall returns the call sel(args...) with tx's other fields,
// signed by sign over its signing digest and memoized: FrozenCopy's
// layout with the calldata encoded straight into it, so a client's
// signed call is one allocation while its calldata fits 128 bytes. The
// signing digest is derived once, for the signature and the derived
// block both. tx's Data and Sig are ignored, and its From must be the
// address sign signs for. Sig is set after the signing digest is
// derived, which does not cover it, and before anything that does.
func SignedCall(tx Transaction, sign func(sigHash Hash) Hash, sel Selector, args ...Word) *Transaction {
	cp := newFrozen(&tx, CallLength(len(args)))
	PutCall(cp.Data, sel, args...)
	cp.derived.decode(cp.Data)
	cp.Sig = sign(cp.SigHash())
	return cp.Memoize()
}

// ReceiptStatus reports whether an included transaction changed state.
type ReceiptStatus uint8

// Receipt statuses. A Failed transaction is included in its block and
// consumes gas, but all its state effects were rolled back — the paper's
// definition of a failed blockchain transaction (§II-D).
const (
	StatusFailed ReceiptStatus = iota
	StatusSucceeded
)

func (s ReceiptStatus) String() string {
	if s == StatusSucceeded {
		return "succeeded"
	}
	return "failed"
}

// Receipt records the outcome of an included transaction: what its block
// cannot give. A block's receipts are one slab in body order, so the
// transaction of receipts[i] is block.Txs[i], and its hash, its index i
// and the block's number come from the block.
type Receipt struct {
	Status      ReceiptStatus
	GasUsed     uint64
	ReturnValue Word // first word of the EVM return data, if any
}

// receiptMaxSize bounds the encoding the receipt root commits to: 2
// (header) + 33 (transaction hash) + 2 + 9 + 33 + 9 (block number) + 9
// (index) bytes.
const receiptMaxSize = 104

// appendRLP appends the encoding the receipt root commits to for r, the
// receipt of the index-th transaction, txHash, of block number: the list
// of the transaction hash, status, gas used, return word, block number
// and index.
func (r *Receipt) appendRLP(out []byte, txHash Hash, number uint64, index int) []byte {
	// The two 32-byte hash fields alone put the payload in [70, 95]
	// bytes — always the two-byte long-list header (0xf8, len) and
	// never more than 255 — so the header is reserved up front and
	// length-patched after encoding the fields in place.
	// TestReceiptAppendRLPMatchesItemTree pins byte-identity with the
	// Item-tree form across the field ranges.
	start := len(out)
	out = append(out, 0xf8, 0)
	out = rlp.AppendString(out, txHash[:])
	out = rlp.AppendUint(out, uint64(r.Status))
	out = rlp.AppendUint(out, r.GasUsed)
	out = rlp.AppendString(out, r.ReturnValue[:])
	out = rlp.AppendUint(out, number)
	out = rlp.AppendUint(out, uint64(index))
	out[start+1] = byte(len(out) - start - 2)
	return out
}

// rlpSize returns len(r.appendRLP(nil, txHash, number, index)), which
// does not depend on the hash.
func (r *Receipt) rlpSize(number uint64, index int) int {
	return 2 + 2*33 + rlp.UintSize(uint64(r.Status)) + rlp.UintSize(r.GasUsed) +
		rlp.UintSize(number) + rlp.UintSize(uint64(index))
}
