// Package types defines the core blockchain data model shared by every
// subsystem: addresses, hashes, EVM words, transactions (including the
// FPV argument layout used by Hash-Mark-Set), headers, blocks and
// receipts. Hashing is Keccak-256 over canonical RLP encodings.
package types

import (
	"encoding/hex"
	"errors"
	"fmt"

	"sereth/internal/keccak"
)

// Byte lengths of the fixed-size types.
const (
	AddressLength = 20
	HashLength    = 32
	WordLength    = 32
)

type (
	// Address is a 20-byte account identifier.
	Address [AddressLength]byte
	// Hash is a 32-byte Keccak-256 digest.
	Hash [HashLength]byte
	// Word is a 32-byte EVM storage/argument word.
	Word [WordLength]byte
)

// ZeroAddress is the empty address (contract creation target).
var ZeroAddress Address

// ZeroWord is the all-zero word.
var ZeroWord Word

// Hex returns the 0x-prefixed hex encoding of the address.
func (a Address) Hex() string { return "0x" + hex.EncodeToString(a[:]) }

// Word returns the address left-padded to a 32-byte word.
func (a Address) Word() Word {
	var w Word
	copy(w[WordLength-AddressLength:], a[:])
	return w
}

// Hex returns the 0x-prefixed hex encoding of the hash.
func (h Hash) Hex() string { return "0x" + hex.EncodeToString(h[:]) }

// Word converts the hash to a storage word.
func (h Hash) Word() Word { return Word(h) }

// Hex returns the 0x-prefixed hex encoding of the word.
func (w Word) Hex() string { return "0x" + hex.EncodeToString(w[:]) }

// Hash converts the word to a hash.
func (w Word) Hash() Hash { return Hash(w) }

// Address extracts the low 20 bytes as an address.
func (w Word) Address() Address {
	var a Address
	copy(a[:], w[WordLength-AddressLength:])
	return a
}

// IsZero reports whether the word is all zeroes.
func (w Word) IsZero() bool { return w == ZeroWord }

// WordFromUint64 returns v as a big-endian 32-byte word.
func WordFromUint64(v uint64) Word {
	var w Word
	for i := 0; i < 8; i++ {
		w[WordLength-1-i] = byte(v >> (8 * i))
	}
	return w
}

// Uint64 interprets the low 8 bytes of the word as a big-endian integer.
// It reports false when higher-order bytes are set.
func (w Word) Uint64() (uint64, bool) {
	for i := 0; i < WordLength-8; i++ {
		if w[i] != 0 {
			return 0, false
		}
	}
	var v uint64
	for i := WordLength - 8; i < WordLength; i++ {
		v = v<<8 | uint64(w[i])
	}
	return v, true
}

// HexToAddress parses a 0x-prefixed or bare hex address. Short input is
// left-padded with zeroes.
func HexToAddress(s string) (Address, error) {
	b, err := parseHex(s, AddressLength)
	if err != nil {
		return Address{}, err
	}
	var a Address
	copy(a[AddressLength-len(b):], b)
	return a, nil
}

// HexToHash parses a 0x-prefixed or bare hex hash.
func HexToHash(s string) (Hash, error) {
	b, err := parseHex(s, HashLength)
	if err != nil {
		return Hash{}, err
	}
	var h Hash
	copy(h[HashLength-len(b):], b)
	return h, nil
}

func parseHex(s string, maxLen int) ([]byte, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	if len(s)%2 == 1 {
		s = "0" + s
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("parse hex %q: %w", s, err)
	}
	if len(b) > maxLen {
		return nil, fmt.Errorf("hex value %q longer than %d bytes", s, maxLen)
	}
	return b, nil
}

// Keccak computes the Keccak-256 digest of the concatenated inputs.
func Keccak(data ...[]byte) Hash {
	return Hash(keccak.Sum256(data...))
}

// --- FPV / AMV -------------------------------------------------------------

// Flag values carried in FPV[0]. The paper's PROCESS step (Algorithm 2)
// accepts transactions flagged either as head candidates (the first HMS
// transaction of the current block, validated against committed state) or
// as chained successors of the current pool tail.
var (
	// FlagHead marks a head-candidate transaction.
	FlagHead = WordFromUint64(1)
	// FlagChain marks a successor transaction (the paper's successFlag).
	FlagChain = WordFromUint64(2)
)

// FPV is the three-word argument tuple (flag, previous mark, value) passed
// to the Sereth contract's write functions, visible in a transaction's
// input data (paper §III-C).
type FPV struct {
	Flag     Word
	PrevMark Word
	Value    Word
}

// AMV is the contract-side state tuple (address, mark, value) managed by
// Hash-Mark-Set.
type AMV struct {
	Address Address
	Mark    Word
	Value   Word
}

// NextMark computes mark' = Keccak256(prevMark, value), the chaining rule
// that fixes a transaction's place in a series (paper §III-C).
func NextMark(prevMark, value Word) Word {
	return Keccak(prevMark[:], value[:]).Word()
}

// ErrShortData reports calldata too short to carry a selector plus FPV.
var ErrShortData = errors.New("types: calldata too short for FPV")

// SelectorLength is the length of an ABI function selector.
const SelectorLength = 4

// Selector is a 4-byte ABI function selector.
type Selector [SelectorLength]byte

// SelectorFor computes the ABI selector for a function signature string,
// e.g. "set(bytes32[3])".
func SelectorFor(signature string) Selector {
	h := keccak.Sum256([]byte(signature))
	var s Selector
	copy(s[:], h[:SelectorLength])
	return s
}

// EncodeCall builds calldata from a selector and argument words.
func EncodeCall(sel Selector, args ...Word) []byte {
	return PutCall(make([]byte, CallLength(len(args))), sel, args...)
}

// CallLength is the length of calldata carrying n argument words.
func CallLength(n int) int { return SelectorLength + n*WordLength }

// PutCall writes the calldata sel ‖ args into dst, which must hold at
// least CallLength(len(args)) bytes, and returns that prefix of dst.
func PutCall(dst []byte, sel Selector, args ...Word) []byte {
	dst = dst[:CallLength(len(args))]
	copy(dst, sel[:])
	for i, a := range args {
		copy(dst[SelectorLength+i*WordLength:], a[:])
	}
	return dst
}

// DecodeFPV extracts the FPV tuple from calldata laid out as
// selector ‖ flag ‖ prevMark ‖ value.
func DecodeFPV(data []byte) (FPV, error) {
	if len(data) < SelectorLength+3*WordLength {
		return FPV{}, ErrShortData
	}
	var f FPV
	copy(f.Flag[:], data[SelectorLength:])
	copy(f.PrevMark[:], data[SelectorLength+WordLength:])
	copy(f.Value[:], data[SelectorLength+2*WordLength:])
	return f, nil
}

// CallSelector extracts the 4-byte selector from calldata.
func CallSelector(data []byte) (Selector, bool) {
	if len(data) < SelectorLength {
		return Selector{}, false
	}
	var s Selector
	copy(s[:], data)
	return s, true
}
