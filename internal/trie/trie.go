// Package trie implements the hexary Merkle Patricia Trie used by
// Ethereum for state commitments. Nodes are RLP-encoded and referenced by
// Keccak-256 hash (nodes shorter than 32 bytes are embedded in their
// parent, per the specification), so identical contents always produce
// identical roots regardless of insertion order.
//
// Sharing rule: a node whose encoding cache is filled may be reachable
// from other tries and is never written again; a node whose cache is
// empty was made by the one trie that holds it since that trie was last
// hashed, and that trie writes it in place. Copy hashes before it shares,
// so no unhashed node is ever reachable from two tries.
package trie

import (
	"bytes"
	"sort"

	"sereth/internal/keccak"
	"sereth/internal/rlp"
	"sereth/internal/types"
)

// EmptyRoot is the root hash of an empty trie: Keccak256(RLP("")).
var EmptyRoot = types.Keccak(rlp.Encode(rlp.String(nil)))

// Trie is an in-memory Merkle Patricia Trie. The zero value is an empty
// trie.
//
// The trie is persistent where it is shared: Update and Delete copy every
// hashed node along the mutated path and write only nodes made since the
// last hashing, which no other trie can reach (see the package comment),
// so a Copy stays valid while either side keeps mutating, and a burst of
// updates between two hashings copies each node at most once. Each node
// memoizes its RLP encoding and Keccak reference the first time it is
// hashed, which makes RootHash O(changed paths) instead of O(trie): the
// untouched siblings of a mutated path reuse their cached encodings.
type Trie struct {
	root node
	// hash caches the root hash of the current root node; any mutation
	// clears it.
	hash *types.Hash
	// db resolves by-hash node references for tries opened from a
	// persisted root (NewFromRoot); nil for purely in-memory tries.
	db NodeReader
}

// node is one of: *shortNode (leaf/extension), *fullNode (branch),
// valueNode (stored value), hashNode (an unresolved reference into a
// node store). nil means the empty subtrie.
type node interface{}

// nodeCache memoizes a node's canonical encoding. enc is the node's RLP
// encoding (nil until computed); hash is Keccak(enc), valid only when
// hashed is set (computed lazily and only for encodings >= 32 bytes,
// which are referenced by hash per the MPT spec). stored marks nodes
// whose encoding already lives in a node store, so Commit stops walking
// there. An empty cache (enc == nil) is also what marks a node private
// to its trie — see mutable.
type nodeCache struct {
	enc    []byte
	hash   types.Hash
	hashed bool
	stored bool
}

type shortNode struct {
	key   []byte // nibbles
	val   node   // valueNode for a leaf, otherwise child node
	cache nodeCache
}

type fullNode struct {
	children [17]node // 16 nibble branches + value slot
	cache    nodeCache
}

type valueNode []byte

// New returns an empty trie.
func New() *Trie { return &Trie{} }

// Copy returns a trie sharing this trie's nodes. It hashes the receiver
// first, which fills the cache of every node it is about to share: from
// then on both sides path-copy those nodes and write in place only the
// ones they make themselves. On an already hashed trie Copy writes
// nothing, so goroutines may Copy (and Get, and RootHash) a hashed trie
// that none of them mutates. The copy is a value: the caller decides
// where the handle lives.
func (t *Trie) Copy() Trie {
	t.RootHash()
	return Trie{root: t.root, hash: t.hash, db: t.db}
}

// Get returns the value stored under key, or nil if absent.
//
// On a trie opened from a persisted root, unresolved references along
// the path are fetched from the store transiently — the resolved node is
// NOT written back into the tree, so concurrent readers sharing nodes
// via Copy never race. Durable resolution happens on the mutating ops,
// which only write nodes private to their trie.
func (t *Trie) Get(key []byte) []byte {
	n := t.root
	var buf [nibbleBuf]byte
	k := appendNibbles(buf[:0], key)
	for {
		switch cur := n.(type) {
		case nil:
			return nil
		case valueNode:
			if len(k) > 0 {
				return nil // the stored key is a proper prefix of this one
			}
			return cur
		case hashNode:
			n = mustResolve(t.db, cur)
		case *shortNode:
			if len(k) < len(cur.key) || !bytes.Equal(k[:len(cur.key)], cur.key) {
				return nil
			}
			k = k[len(cur.key):]
			n = cur.val
		case *fullNode:
			if len(k) == 0 {
				if v, ok := cur.children[16].(valueNode); ok {
					return v
				}
				return nil
			}
			n = cur.children[k[0]]
			k = k[1:]
		default:
			return nil
		}
	}
}

// Update stores a copy of value under key. An empty or nil value deletes
// the key.
func (t *Trie) Update(key, value []byte) { t.update(key, bytes.Clone(value)) }

// Delete removes key from the trie.
func (t *Trie) Delete(key []byte) { t.update(key, nil) }

// update is Update for a value the caller hands over: the trie keeps the
// slice itself, and nobody writes it again. The nibble key lives on the
// stack; insert clones the part of it a new short node keeps.
func (t *Trie) update(key []byte, value valueNode) {
	t.hash = nil
	var buf [nibbleBuf]byte
	k := appendNibbles(buf[:0], key)
	if len(value) == 0 {
		t.root = deleteNode(t.db, t.root, k)
	} else {
		t.root = insert(t.db, t.root, k, value)
	}
}

// mutable returns the node to write for a mutation through fn: fn itself
// when it has not been hashed since this trie made it (no other trie can
// reach it), otherwise a copy with an empty cache.
func (fn *fullNode) mutable() *fullNode {
	if fn.cache.enc == nil {
		return fn
	}
	return &fullNode{children: fn.children}
}

// mutable is fullNode.mutable for short nodes.
func (sn *shortNode) mutable() *shortNode {
	if sn.cache.enc == nil {
		return sn
	}
	return &shortNode{key: sn.key, val: sn.val}
}

func insert(db NodeReader, n node, k []byte, v valueNode) node {
	if h, ok := n.(hashNode); ok {
		// The resolved node is hashed, so the mutation below lands in a
		// copy of it; the reference itself stays as it is for its sharers.
		n = mustResolve(db, h)
	}
	if len(k) == 0 {
		switch cur := n.(type) {
		case *fullNode:
			cur = cur.mutable()
			cur.children[16] = v
			return cur
		case *shortNode:
			// The new value terminates above an existing subtree: make a
			// branch holding the value and push the short node down one
			// nibble.
			branch := &fullNode{}
			branch.children[16] = v
			if len(cur.key) == 1 {
				branch.children[cur.key[0]] = cur.val
			} else {
				branch.children[cur.key[0]] = &shortNode{key: cur.key[1:], val: cur.val}
			}
			return branch
		default: // nil or valueNode: create/overwrite
			return v
		}
	}
	switch cur := n.(type) {
	case nil:
		return &shortNode{key: bytes.Clone(k), val: v}
	case valueNode:
		// Existing value at this exact prefix: push it into a branch.
		branch := &fullNode{}
		branch.children[16] = cur
		branch.children[k[0]] = insert(db, nil, k[1:], v)
		return branch
	case *shortNode:
		match := commonPrefix(k, cur.key)
		if match == len(cur.key) {
			cur = cur.mutable()
			cur.val = insert(db, cur.val, k[match:], v)
			return cur
		}
		// Split: branch at the divergence point.
		branch := &fullNode{}
		// Existing child goes under its next nibble.
		existingKey := cur.key[match:]
		if len(existingKey) == 1 {
			branch.children[existingKey[0]] = cur.val
		} else {
			branch.children[existingKey[0]] = &shortNode{key: existingKey[1:], val: cur.val}
		}
		// New value goes under its next nibble (or the value slot).
		newKey := k[match:]
		if len(newKey) == 0 {
			branch.children[16] = v
		} else {
			branch.children[newKey[0]] = insert(db, nil, newKey[1:], v)
		}
		if match == 0 {
			return branch
		}
		return &shortNode{key: bytes.Clone(k[:match]), val: branch}
	case *fullNode:
		cur = cur.mutable()
		cur.children[k[0]] = insert(db, cur.children[k[0]], k[1:], v)
		return cur
	default:
		return n
	}
}

func deleteNode(db NodeReader, n node, k []byte) node {
	if h, ok := n.(hashNode); ok {
		n = mustResolve(db, h)
	}
	switch cur := n.(type) {
	case nil:
		return nil
	case valueNode:
		if len(k) == 0 {
			return nil
		}
		return cur
	case *shortNode:
		if len(k) < len(cur.key) || !bytes.Equal(k[:len(cur.key)], cur.key) {
			return cur
		}
		child := deleteNode(db, cur.val, k[len(cur.key):])
		if child == nil {
			return nil
		}
		// Merge chains of short nodes back together.
		if sn, ok := child.(*shortNode); ok {
			merged := append(append([]byte{}, cur.key...), sn.key...)
			return &shortNode{key: merged, val: sn.val}
		}
		cur = cur.mutable()
		cur.val = child
		return cur
	case *fullNode:
		cur = cur.mutable()
		if len(k) == 0 {
			cur.children[16] = nil
		} else {
			cur.children[k[0]] = deleteNode(db, cur.children[k[0]], k[1:])
		}
		return collapse(db, cur)
	default:
		return n
	}
}

// collapse reduces a branch with fewer than two live slots back into a
// short node (or nil), keeping the trie canonical so roots stay unique.
// A lone surviving child that is still an unresolved reference must be
// fetched first: if it turns out to be a short node its key has to merge
// with the branch nibble, and skipping that would change the root.
func collapse(db NodeReader, branch *fullNode) node {
	live := -1
	count := 0
	for i, c := range branch.children {
		if c != nil {
			live = i
			count++
		}
	}
	switch count {
	case 0:
		return nil
	case 1:
		if live == 16 {
			return branch.children[16]
		}
		child := branch.children[live]
		if h, ok := child.(hashNode); ok {
			child = mustResolve(db, h)
		}
		if sn, ok := child.(*shortNode); ok {
			merged := append([]byte{byte(live)}, sn.key...)
			return &shortNode{key: merged, val: sn.val}
		}
		return &shortNode{key: []byte{byte(live)}, val: child}
	default:
		return branch
	}
}

func commonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// RootHash computes the Merkle root of the current trie contents. The
// result is cached until the next mutation; on a trie where only a few
// paths changed since the last call, only those paths are re-encoded and
// re-hashed.
func (t *Trie) RootHash() types.Hash {
	if t.root == nil {
		return EmptyRoot
	}
	if h, ok := t.root.(hashNode); ok {
		// An untouched persisted trie is already its own commitment.
		return types.Hash(h)
	}
	if t.hash == nil {
		h := types.Keccak(encoding(t.root))
		t.hash = &h
	}
	return *t.hash
}

// encoding returns the node's canonical RLP encoding, memoized on short
// and full nodes. The first call after a mutation encodes exactly the
// nodes written or copied since the last one; every untouched subtree
// returns its cached bytes without recursing.
func encoding(n node) []byte {
	switch cur := n.(type) {
	case valueNode:
		return rlp.AppendString(nil, cur)
	case *shortNode:
		if cur.cache.enc == nil {
			cur.cache.enc = cur.encode()
		}
		return cur.cache.enc
	case *fullNode:
		if cur.cache.enc == nil {
			cur.cache.enc = cur.encode()
		}
		return cur.cache.enc
	default: // nil
		return []byte{0x80}
	}
}

// encode measures the short node — the list of its hex-prefix key and
// either its value (a leaf) or the reference to its child (an extension)
// — and writes it into one buffer of the exact size.
func (sn *shortNode) encode() []byte {
	var keyBuf [33]byte // a secure trie's keys are at most 64 nibbles
	leaf, isLeaf := sn.val.(valueNode)
	key := appendHexPrefix(keyBuf[:0], sn.key, isLeaf)
	size := rlp.StringSize(key)
	if isLeaf {
		size += rlp.StringSize(leaf)
	} else {
		size += refSize(sn.val)
	}
	out := rlp.AppendListHeader(make([]byte, 0, rlp.ListSize(size)), size)
	out = rlp.AppendString(out, key)
	if isLeaf {
		return rlp.AppendString(out, leaf)
	}
	return appendRef(out, sn.val)
}

// encode measures the branch — sixteen child references and the value
// slot — and writes it into one buffer of the exact size.
func (fn *fullNode) encode() []byte {
	value, _ := fn.children[16].(valueNode)
	size := rlp.StringSize(value)
	for _, child := range fn.children[:16] {
		size += refSize(child)
	}
	out := rlp.AppendListHeader(make([]byte, 0, rlp.ListSize(size)), size)
	for _, child := range fn.children[:16] {
		out = appendRef(out, child)
	}
	return rlp.AppendString(out, value)
}

// embedLimit is the encoded size from which a child is referenced by its
// Keccak hash instead of being embedded verbatim in its parent (MPT spec).
const embedLimit = len(types.Hash{})

// refSize returns the number of bytes appendRef writes for a child,
// encoding (and memoizing) the child on the way.
func refSize(n node) int {
	var size int
	switch cur := n.(type) {
	case nil:
		return 1
	case hashNode:
		size = len(cur)
	case valueNode:
		size = rlp.StringSize(cur)
	case *shortNode, *fullNode:
		size = len(encoding(cur))
	}
	if size < embedLimit {
		return size
	}
	return 1 + len(types.Hash{}) // a 32-byte string
}

// appendRef appends the parent-embedded reference to a child node,
// memoizing the child's Keccak alongside its encoding.
func appendRef(out []byte, n node) []byte {
	switch cur := n.(type) {
	case nil:
		return append(out, 0x80)
	case hashNode:
		// An unresolved reference already IS the by-hash ref — no store
		// round-trip needed to re-embed it in a fresh parent.
		return rlp.AppendString(out, cur[:])
	case valueNode:
		// A bare value in a branch slot (a split 1-nibble leaf): it has no
		// cache, so a large one is re-hashed by every parent encoding.
		if rlp.StringSize(cur) < embedLimit {
			return rlp.AppendString(out, cur)
		}
		h := keccak.Sum256(rlp.AppendString(nil, cur))
		return rlp.AppendString(out, h[:])
	case *shortNode:
		return cur.cache.appendRef(out, encoding(cur))
	case *fullNode:
		return cur.cache.appendRef(out, encoding(cur))
	default:
		return out
	}
}

// appendRef appends enc itself when it is small enough to embed, the
// node's by-hash reference otherwise.
func (c *nodeCache) appendRef(out, enc []byte) []byte {
	if len(enc) < embedLimit {
		return append(out, enc...)
	}
	return rlp.AppendString(out, c.hashRef(enc)[:])
}

// hashRef returns Keccak(enc), memoized.
func (c *nodeCache) hashRef(enc []byte) *types.Hash {
	if !c.hashed {
		keccak.Sum256Into((*[32]byte)(&c.hash), enc)
		c.hashed = true
	}
	return &c.hash
}

// appendHexPrefix appends a nibble key packed with the leaf/extension
// flag per the hex-prefix encoding of the Yellow Paper (Appendix C).
func appendHexPrefix(out, nibbles []byte, isLeaf bool) []byte {
	var flag byte
	if isLeaf {
		flag = 2
	}
	if len(nibbles)%2 == 1 {
		out = append(out, (flag+1)<<4|nibbles[0])
		nibbles = nibbles[1:]
	} else {
		out = append(out, flag<<4)
	}
	for i := 0; i < len(nibbles); i += 2 {
		out = append(out, nibbles[i]<<4|nibbles[i+1])
	}
	return out
}

// nibbleBuf is the nibble length of a secure trie's keys, kept on the
// stack by Get and update; a longer raw key spills to the heap.
const nibbleBuf = 2 * len(types.Hash{})

// appendNibbles appends key's nibbles, high half first, to out.
func appendNibbles(out, key []byte) []byte {
	for _, b := range key {
		out = append(out, b>>4, b&0x0f)
	}
	return out
}

// Keys returns all keys in the trie in sorted order (testing/debug aid).
func (t *Trie) Keys() [][]byte {
	var keys [][]byte
	walk(t.db, t.root, nil, func(nibbles []byte, _ []byte) {
		keys = append(keys, nibblesToKey(nibbles))
	})
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	return keys
}

// Len returns the number of stored key/value pairs.
func (t *Trie) Len() int {
	n := 0
	walk(t.db, t.root, nil, func([]byte, []byte) { n++ })
	return n
}

func walk(db NodeReader, n node, prefix []byte, visit func(nibbles, value []byte)) {
	switch cur := n.(type) {
	case nil:
	case valueNode:
		visit(prefix, cur)
	case hashNode:
		walk(db, mustResolve(db, cur), prefix, visit)
	case *shortNode:
		walk(db, cur.val, append(append([]byte{}, prefix...), cur.key...), visit)
	case *fullNode:
		for i := 0; i < 16; i++ {
			if cur.children[i] != nil {
				walk(db, cur.children[i], append(append([]byte{}, prefix...), byte(i)), visit)
			}
		}
		if cur.children[16] != nil {
			visit(prefix, cur.children[16].(valueNode))
		}
	}
}

func nibblesToKey(nibbles []byte) []byte {
	out := make([]byte, len(nibbles)/2)
	for i := 0; i < len(out); i++ {
		out[i] = nibbles[i*2]<<4 | nibbles[i*2+1]
	}
	return out
}

// SecureTrie wraps a Trie, hashing keys with Keccak-256 before use so key
// material cannot unbalance the tree (Ethereum's "secure trie").
// The zero value is an empty trie, so a handle can live inside a struct
// or a slab; once used it is copied by Copy only, which hashes before it
// shares.
type SecureTrie struct {
	inner Trie
}

// NewSecure returns an empty secure trie.
func NewSecure() *SecureTrie { return &SecureTrie{} }

// Copy returns a secure trie sharing this trie's nodes (see Trie.Copy).
func (s *SecureTrie) Copy() SecureTrie { return SecureTrie{inner: s.inner.Copy()} }

// Get returns the value stored under key.
func (s *SecureTrie) Get(key []byte) []byte {
	h := keccak.Sum256(key)
	return s.inner.Get(h[:])
}

// Update stores a copy of value under key; empty value deletes.
func (s *SecureTrie) Update(key, value []byte) {
	s.UpdateHashed(keccak.Sum256(key), bytes.Clone(value))
}

// UpdateHashed is Update for a caller that kept hashed = Keccak(key) and
// hands over value: it is kept, not copied, and must never be written
// again.
func (s *SecureTrie) UpdateHashed(hashed types.Hash, value []byte) {
	s.inner.update(hashed[:], value)
}

// Delete removes key.
func (s *SecureTrie) Delete(key []byte) {
	s.UpdateHashed(keccak.Sum256(key), nil)
}

// RootHash returns the Merkle root.
func (s *SecureTrie) RootHash() types.Hash { return s.inner.RootHash() }
