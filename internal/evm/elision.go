package evm

import (
	"bytes"
	"encoding/binary"

	"sereth/internal/types"
)

// Hash elision: the interpreter's SHA3 handler consults admission-time
// derived data before running a sponge. Two layers, both content-keyed
// and therefore self-validating — an entry is only served when the
// hashed region is byte-equal to the input the cached digest was
// derived from, so a stale or misdirected hint can cost a memcmp but
// never change a result:
//
//  1. TxHint — the executing transaction's memoized HMS mark plus the
//     exact 64-byte prevMark‖value calldata region it was derived from
//     (types.Memoize fused that digest out of the same bytes at pool
//     admission). The Sereth contract's mark derivation re-hashes
//     precisely those bytes, so the dominant semantic SHA3 of every
//     set/buy becomes a 64-byte compare.
//  2. sha3Memo — a tiny two-way set-associative memo over recent small
//     SHA3 inputs, catching the contract's repeated equal-content digests
//     within a block (the mark check hashes the same 32 bytes twice on
//     the success path).
//
// Only the jump-table path (Call) elides. CallGeneric stays on the raw
// sponge: it is the bit-identity reference the differential fuzz pins
// the elided path against.

// TxHint carries the executing transaction's admission-derived digests
// as content→digest pairs: Mark is Keccak-256 over exactly the bytes
// of MarkInput (the 64-byte prevMark‖value region) and PrevDigest over
// exactly PrevInput (the 32-byte prevMark region). The chain's
// applyTransaction populates it from Transaction.MarkHint/PrevHint
// before each call and EVM.Reset clears it, so a hint can never
// outlive its transaction on the parallel processor's recycled
// per-worker machines.
type TxHint struct {
	MarkInput  []byte
	Mark       types.Word
	PrevInput  []byte
	PrevDigest types.Word
}

// sha3Memo geometry: 8 sets of 2 ways over inputs up to 64 bytes covers
// the contract set's working set (32-byte mark checks, 64-byte mark
// derivations) without the lookup itself costing a hash. Over 360
// Figure-2 runs (9 cells × 40 seeds) 8 direct-mapped slots hashed again
// 25.6 % of the inputs they missed, ones they had held and lost to a
// collision; 16 direct-mapped slots 15.5 %, these 16 in two-way sets
// 1.9 %.
const (
	sha3MemoSetBits = 3
	sha3MemoSets    = 1 << sha3MemoSetBits
	sha3MemoWays    = 2
	sha3MemoMaxSize = 64
)

type sha3MemoEntry struct {
	used bool
	size int
	in   [sha3MemoMaxSize]byte
	out  types.Word
}

// sha3Memo is a two-way set-associative content-keyed digest memo. It
// embeds by value in the EVM (~2 KB, zero allocations) and is
// deliberately NOT cleared on Reset: Keccak is a pure function and every
// hit is verified by bytes.Equal, so entries stay valid across
// transactions, views and state rebinds — which is exactly what lets the
// second equal-content mark check of a transaction hit the first's
// digest.
type sha3Memo struct {
	entries [sha3MemoSets * sha3MemoWays]sha3MemoEntry
	// older is, per set, the way used less recently: the one a store
	// replaces.
	older [sha3MemoSets]uint8
}

// slot picks the set from every byte of the input: the xor of its 8-byte
// lanes, its tail bytes and its length, spread by a multiplicative hash
// whose top bits index the sets. Boundary bytes alone are not enough: a
// price word's first byte is always zero, so two prices that share their
// last byte would compete for one set. A miss only costs a recompute.
func (m *sha3Memo) slot(data []byte) int {
	h := uint64(len(data))
	for ; len(data) >= 8; data = data[8:] {
		h ^= binary.LittleEndian.Uint64(data)
	}
	for _, b := range data {
		h = h<<8 | h>>56 ^ uint64(b)
	}
	return int((h * 0x9e3779b97f4a7c15) >> (64 - sha3MemoSetBits))
}

func (m *sha3Memo) lookup(data []byte) (types.Word, bool) {
	if len(data) > sha3MemoMaxSize {
		return types.Word{}, false
	}
	set := m.slot(data)
	for way := range sha3MemoWays {
		e := &m.entries[set*sha3MemoWays+way]
		if e.used && e.size == len(data) && bytes.Equal(e.in[:e.size], data) {
			m.older[set] = uint8(1 - way)
			return e.out, true
		}
	}
	return types.Word{}, false
}

// store replaces the set's less recently used way; a set fills its first
// way, then its second, before it replaces either.
func (m *sha3Memo) store(data []byte, out types.Word) {
	if len(data) > sha3MemoMaxSize {
		return
	}
	set := m.slot(data)
	way := m.older[set]
	m.older[set] = 1 - way
	e := &m.entries[set*sha3MemoWays+int(way)]
	e.used = true
	e.size = len(data)
	copy(e.in[:], data)
	e.out = out
}

// SetTxHint installs the per-transaction hash hint consulted by the
// jump-table SHA3 handler. Pass the zero TxHint to clear it. The chain
// processor sets it immediately before each transaction's call (all
// execution lanes — sequential, speculative worker, serial re-run — go
// through the same applyTransaction, so they elide identically).
func (e *EVM) SetTxHint(h TxHint) { e.hint = h }

// sha3 is the elision-aware Keccak-256 entry point for the jump-table
// SHA3 handler. Gas has already been charged by the caller; this only
// decides whether the sponge has to run.
func (e *EVM) sha3(data []byte) types.Word {
	// The hint pairs are exact-content matches: hashing precisely the
	// bytes a digest was derived from at admission returns that digest.
	// The non-empty guards keep a cleared hint from matching an empty
	// region (bytes.Equal(nil, []byte{}) is true). On the contract's
	// success path the PrevInput pair also absorbs the equal-content
	// hash of the stored mark.
	if len(e.hint.MarkInput) != 0 && bytes.Equal(e.hint.MarkInput, data) {
		return e.hint.Mark
	}
	if len(e.hint.PrevInput) != 0 && bytes.Equal(e.hint.PrevInput, data) {
		return e.hint.PrevDigest
	}
	if w, ok := e.memo.lookup(data); ok {
		return w
	}
	w := types.Keccak(data).Word()
	e.memo.store(data, w)
	return w
}
