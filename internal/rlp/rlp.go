// Package rlp implements Ethereum's Recursive Length Prefix serialization.
// It is the canonical byte encoding used before hashing transactions,
// headers and trie nodes, guaranteeing that two peers hash identical
// structures to identical digests.
//
// The package encodes/decodes a small item algebra rather than arbitrary
// Go values: an Item is either a byte string or a list of Items. Higher
// layers (internal/types, internal/trie) map their structs onto Items.
package rlp

import (
	"errors"
	"math/bits"
)

// Kind discriminates the RLP item kinds.
type Kind int

// Item kinds.
const (
	KindString Kind = iota + 1
	KindList
)

// Item is a node in an RLP value tree.
type Item struct {
	kind Kind
	str  []byte
	list []Item
}

// Errors returned by Decode.
var (
	ErrTruncated     = errors.New("rlp: input truncated")
	ErrTrailing      = errors.New("rlp: trailing bytes after value")
	ErrNonCanonical  = errors.New("rlp: non-canonical encoding")
	ErrLengthTooBig  = errors.New("rlp: length exceeds input size")
	ErrExpectedKind  = errors.New("rlp: unexpected item kind")
	ErrValueTooLarge = errors.New("rlp: integer value too large")
)

// String returns a string item holding b. The slice is copied.
func String(b []byte) Item {
	cp := make([]byte, len(b))
	copy(cp, b)
	return Item{kind: KindString, str: cp}
}

// Uint returns a string item holding the minimal big-endian encoding of v
// (empty string for zero), the canonical RLP integer form.
func Uint(v uint64) Item {
	if v == 0 {
		return Item{kind: KindString, str: []byte{}}
	}
	var buf [8]byte
	n := 0
	for shift := 56; shift >= 0; shift -= 8 {
		b := byte(v >> uint(shift))
		if n == 0 && b == 0 {
			continue
		}
		buf[n] = b
		n++
	}
	return Item{kind: KindString, str: append([]byte{}, buf[:n]...)}
}

// List returns a list item of the given children.
func List(items ...Item) Item {
	cp := make([]Item, len(items))
	copy(cp, items)
	return Item{kind: KindList, list: cp}
}

// Kind returns the item's kind. The zero Item has kind 0 (invalid).
func (it Item) Kind() Kind { return it.kind }

// Bytes returns the payload of a string item.
func (it Item) Bytes() ([]byte, error) {
	if it.kind != KindString {
		return nil, ErrExpectedKind
	}
	return it.str, nil
}

// AsUint decodes a canonical RLP integer string into a uint64.
func (it Item) AsUint() (uint64, error) {
	b, err := it.Bytes()
	if err != nil {
		return 0, err
	}
	if len(b) > 8 {
		return 0, ErrValueTooLarge
	}
	if len(b) > 0 && b[0] == 0 {
		return 0, ErrNonCanonical
	}
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v, nil
}

// Items returns the children of a list item.
func (it Item) Items() ([]Item, error) {
	if it.kind != KindList {
		return nil, ErrExpectedKind
	}
	return it.list, nil
}

// Encode serializes the item to its canonical RLP byte encoding.
func Encode(it Item) []byte {
	var out []byte
	return appendItem(out, it)
}

// AppendString appends the canonical string encoding of s to out —
// byte-identical to Encode(String(s)) without building an Item.
func AppendString(out, s []byte) []byte { return appendString(out, s) }

// AppendUint appends the canonical integer encoding of v to out —
// byte-identical to Encode(Uint(v)).
func AppendUint(out []byte, v uint64) []byte {
	if v == 0 {
		return append(out, 0x80)
	}
	var buf [8]byte
	n := 0
	for shift := 56; shift >= 0; shift -= 8 {
		b := byte(v >> uint(shift))
		if n == 0 && b == 0 {
			continue
		}
		buf[n] = b
		n++
	}
	return appendString(out, buf[:n])
}

// AppendList appends a list header followed by payload, which must be
// the concatenated encodings of the list's children — byte-identical to
// Encode(List(children...)). The flat form lets hot encoders (receipts,
// root derivations) build lists in reused buffers instead of Item trees.
func AppendList(out, payload []byte) []byte {
	return append(AppendListHeader(out, len(payload)), payload...)
}

// AppendListHeader appends the header of a list whose children encode to
// payload bytes in all; the caller appends exactly those bytes next. With
// StringSize and ListSize it lets an encoder that can measure its
// children first (the trie's nodes) write into one buffer of the exact
// size.
func AppendListHeader(out []byte, payload int) []byte {
	return appendLength(out, payload, 0xc0)
}

// StringSize returns len(AppendString(nil, s)).
func StringSize(s []byte) int {
	if len(s) == 1 && s[0] < 0x80 {
		return 1
	}
	return lengthSize(len(s)) + len(s)
}

// UintSize returns len(AppendUint(nil, v)).
func UintSize(v uint64) int {
	if v < 0x80 {
		return 1
	}
	return 1 + (bits.Len64(v)+7)/8
}

// ListSize returns the encoded size of a list with payload bytes of
// children: header plus payload.
func ListSize(payload int) int { return lengthSize(payload) + payload }

// lengthSize returns the number of bytes appendLength writes for n.
func lengthSize(n int) int {
	if n < 56 {
		return 1
	}
	return 1 + (bits.Len64(uint64(n))+7)/8
}

func appendItem(out []byte, it Item) []byte {
	switch it.kind {
	case KindString:
		return appendString(out, it.str)
	case KindList:
		var payload []byte
		for _, child := range it.list {
			payload = appendItem(payload, child)
		}
		out = appendLength(out, len(payload), 0xc0)
		return append(out, payload...)
	default:
		// Treat the zero Item as the empty string for robustness.
		return appendString(out, nil)
	}
}

func appendString(out, s []byte) []byte {
	if len(s) == 1 && s[0] < 0x80 {
		return append(out, s[0])
	}
	out = appendLength(out, len(s), 0x80)
	return append(out, s...)
}

func appendLength(out []byte, n int, offset byte) []byte {
	if n < 56 {
		return append(out, offset+byte(n))
	}
	var lenBytes [8]byte
	k := 0
	for shift := 56; shift >= 0; shift -= 8 {
		b := byte(uint64(n) >> uint(shift))
		if k == 0 && b == 0 {
			continue
		}
		lenBytes[k] = b
		k++
	}
	out = append(out, offset+55+byte(k))
	return append(out, lenBytes[:k]...)
}

// Decode parses exactly one RLP value from data, rejecting trailing bytes
// and non-canonical encodings.
func Decode(data []byte) (Item, error) {
	it, rest, err := decodeOne(data)
	if err != nil {
		return Item{}, err
	}
	if len(rest) != 0 {
		return Item{}, ErrTrailing
	}
	return it, nil
}

func decodeOne(data []byte) (Item, []byte, error) {
	kind, content, rest, err := Split(data)
	if err != nil {
		return Item{}, nil, err
	}
	if kind == KindString {
		return Item{kind: KindString, str: content}, rest, nil
	}
	children, err := decodeList(content)
	if err != nil {
		return Item{}, nil, err
	}
	return Item{kind: KindList, list: children}, rest, nil
}

// Split reads the header of the first RLP value in data and returns its
// kind, its content — a string's bytes or a list's payload, both aliasing
// data — and the bytes after it, with Decode's checks on that header. A
// list's payload is not looked into: a flat decoder splits each child in
// turn, and so never builds an Item tree.
func Split(data []byte) (kind Kind, content, rest []byte, err error) {
	if len(data) == 0 {
		return 0, nil, nil, ErrTruncated
	}
	var n int
	switch prefix := data[0]; {
	case prefix < 0x80: // single byte
		return KindString, data[:1], data[1:], nil
	case prefix <= 0xb7: // short string
		kind, n, rest = KindString, int(prefix-0x80), data[1:]
	case prefix <= 0xbf: // long string
		kind = KindString
		n, rest, err = decodeLongLength(data, prefix-0xb7)
	case prefix <= 0xf7: // short list
		kind, n, rest = KindList, int(prefix-0xc0), data[1:]
	default: // long list
		kind = KindList
		n, rest, err = decodeLongLength(data, prefix-0xf7)
	}
	if err != nil {
		return 0, nil, nil, err
	}
	if len(rest) < n {
		return 0, nil, nil, ErrLengthTooBig
	}
	if kind == KindString && n == 1 && rest[0] < 0x80 {
		return 0, nil, nil, ErrNonCanonical // a single byte below 0x80 is its own encoding
	}
	return kind, rest[:n], rest[n:], nil
}

func decodeLongLength(data []byte, lenOfLen byte) (int, []byte, error) {
	k := int(lenOfLen)
	if len(data)-1 < k {
		return 0, nil, ErrTruncated
	}
	lenBytes := data[1 : 1+k]
	if lenBytes[0] == 0 {
		return 0, nil, ErrNonCanonical
	}
	var n uint64
	for _, b := range lenBytes {
		n = n<<8 | uint64(b)
	}
	if n < 56 {
		return 0, nil, ErrNonCanonical
	}
	if n > uint64(len(data)) {
		return 0, nil, ErrLengthTooBig
	}
	return int(n), data[1+k:], nil
}

func decodeList(payload []byte) ([]Item, error) {
	var children []Item
	for len(payload) > 0 {
		child, rest, err := decodeOne(payload)
		if err != nil {
			return nil, err
		}
		children = append(children, child)
		payload = rest
	}
	return children, nil
}
