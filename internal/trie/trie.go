// Package trie implements the hexary Merkle Patricia Trie used by
// Ethereum for state commitments. Nodes are RLP-encoded and referenced by
// Keccak-256 hash (nodes shorter than 32 bytes are embedded in their
// parent, per the specification), so identical contents always produce
// identical roots regardless of insertion order.
//
// Sharing rule: a node whose reference is filled may be reachable from
// other tries and is never written again; a node whose reference is
// empty was made by the one trie that holds it since that trie was last
// hashed, and that trie writes it in place. Copy hashes before it shares,
// so no unhashed node is ever reachable from two tries. A chunk slot a
// new node comes from is handed out once, by the trie that took the
// chunk, and only while that trie holds unhashed nodes: hashing lets the
// chunk go, so neither Copy nor a copy of a hashed trie's value carries
// it.
package trie

import (
	"bytes"
	"sort"
	"sync"

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
// updates between two hashings copies each node at most once. Where the
// previous flush wrote a path, the nodes a burst makes there come from
// chunks the trie takes for itself (see take), a few objects a burst
// instead of one a node; hashing lets the chunks go. Each
// node keeps the reference its parent embeds — its Keccak hash, or its
// encoding itself when that is shorter than 32 bytes — from the first
// time it is hashed, and nothing else of its encoding, which makes
// RootHash O(changed paths) instead of O(trie): a node on a mutated path
// is encoded again from its children's references, and the untouched
// siblings are not visited.
type Trie struct {
	root node
	// db resolves by-hash node references for tries opened from a
	// persisted root (NewFromRoot); nil for purely in-memory tries.
	db NodeReader
	// leaves and fulls (one per branch depth) are the runs of chunks the
	// trie's new nodes come from (see take).
	leaves chunks[shortNode]
	fulls  [chunkDepths]chunks[fullNode]
	// gen is the trie's generation: the number of hashings that found
	// unhashed nodes, counted along its line of copies.
	gen uint32
}

// node is one of: *shortNode (leaf/extension), *fullNode (branch),
// valueNode (a value in a branch's value slot, or a bare one in a child
// or root slot), hashNode (an unresolved reference into a node store).
// nil means the empty subtrie.
type node interface{}

// nodeCache holds what a parent embeds for a node: with refLen 32, ref
// is Keccak of the node's encoding (a node of 32 bytes or more is
// referenced by hash, per the MPT spec); with refLen 1 to 31, ref[:refLen]
// is the encoding itself, embedded verbatim. refLen 0 means the node has
// not been hashed since it was made, which is also what marks it private
// to its trie — see mutableFull. stored marks nodes whose encoding already
// lives in a node store, so Commit stops walking there; the copies of a
// trie share it, so it holds only where they all commit to one store.
//
// born is the trie generation (see Trie.gen) the node was made in, plus
// one; 0 on a node read from a store.
type nodeCache struct {
	ref    types.Hash
	refLen uint8
	stored bool
	born   uint32
}

// shortNode is a leaf when val is nil, its value in value, and an
// extension otherwise. Its key is a copy kept in its own nibbles (a raw
// key longer than a hash spills to the heap), so a node is one object
// and keeps no other node alive through its key; an unhashed leaf is
// overwritten in place.
type shortNode struct {
	key     []byte // nibbles
	val     node   // an extension's child; nil for a leaf
	value   []byte // a leaf's value
	cache   nodeCache
	nibbles [nibbleBuf]byte
}

// init makes sn the short node of a copy of the nibbles key over val, or
// holding value when val is nil. sn keeps value itself.
func (sn *shortNode) init(key []byte, val node, value []byte) *shortNode {
	if len(key) <= nibbleBuf {
		n := copy(sn.nibbles[:], key)
		sn.key = sn.nibbles[:n:n]
	} else {
		sn.key = bytes.Clone(key)
	}
	sn.val, sn.value = val, value
	return sn
}

type fullNode struct {
	children [17]node // 16 nibble branches + value slot
	cache    nodeCache
}

// valueNode is a value that is not a leaf's: one in a branch's value
// slot, or a bare one where a leaf's key would be empty (a child slot of
// a branch, or the root). Only raw keys that are prefixes of one another
// and a 63-nibble collision of hashed keys make that shape; each boxes
// its slice header into the node interface.
type valueNode []byte

// New returns an empty trie.
func New() *Trie { return &Trie{} }

// Copy returns a trie sharing this trie's nodes. It hashes the receiver
// first, which fills the cache of every node it is about to share and
// lets go of the receiver's chunks: from then on both sides path-copy
// those nodes and write in place only the ones they make themselves,
// from chunks of their own, which start at the sizes the receiver's last
// generation used. On an already hashed trie Copy writes
// nothing, so goroutines may Copy (and Get, and RootHash) a hashed trie
// that none of them mutates. The copy is a value: the caller decides
// where the handle lives.
func (t *Trie) Copy() Trie {
	t.RootHash()
	cp := Trie{root: t.root, db: t.db, gen: t.gen}
	cp.leaves.last = t.leaves.last
	for d := range t.fulls {
		cp.fulls[d].last = t.fulls[d].last
	}
	return cp
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
			if cur.val == nil {
				if len(k) > 0 {
					return nil // the leaf's key is a proper prefix of this one
				}
				return cur.value
			}
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
// stack; a new short node copies the part of it it keeps.
func (t *Trie) update(key, value []byte) {
	var buf [nibbleBuf]byte
	k := appendNibbles(buf[:0], key)
	if len(value) == 0 {
		t.root = t.deleteNode(t.root, k, 0)
	} else {
		t.root = t.insert(t.root, k, 0, value)
	}
}

// Chunk sizes, in nodes. The first chunk a run takes after a hashing
// holds as many nodes as the run handed out in the trie's previous
// generation, at least firstChunk; the next ones hold firstChunk, then
// twice the last, up to maxChunk. A flush like the one before takes one
// chunk a run, a burst of N updates below the cap O(log N), and little
// is left empty: at most what a flush handed out less than the one
// before, and about what it handed out more. (Runs that started at 8
// nodes whatever the flush before grew deep-pool's live heap by a
// quarter, and at 2 by a tenth: a memory chain's post states keep the
// empty slots.)
const (
	firstChunk = 2
	maxChunk   = 256
)

// chunkDepths is the number of branch depths, counted in nibbles from
// the root, whose branches may come from chunks; a deeper one, which
// only a trie of millions of keys or raw keys with long common prefixes
// have, is allocated alone.
const chunkDepths = 8

// chunks is a run of chunks of one kind of node: the free slots of the
// chunk taken last since the trie was last hashed, the number of slots
// handed out since, and the number handed out in the generation before.
type chunks[T any] struct {
	free       []T
	took, last int32
}

// take hands out a free slot, taking a fresh chunk when none is left.
// Each slot is handed out once: free keeps only the slots in front of
// the ones handed out, and is never appended to.
//
// A chunk stays allocated while any of its nodes is reachable, and keeps
// what all of its nodes point to alive with it, the dead ones' children
// too. Two rules bound what that costs. A chunk holds only leaves, which
// point at no node, or only branches of one depth, whose children are
// all deeper, so a chain of chunks kept alive by dead nodes is no longer
// than the trie is deep, instead of reaching back through its whole
// history. And only a node whose predecessor lived one generation goes
// into a chunk (see young): a path that is rewritten at every flush, as
// the top of a trie is, dies with its chunk, while a node that lives for
// many flushes, as most leaves of a large trie do, is allocated alone
// and keeps no chunk alive. Extensions are allocated alone.
func (c *chunks[T]) take() *T {
	if len(c.free) == 0 {
		size := int(c.last)
		switch {
		case c.took == int32(cap(c.free)) && c.took != 0:
			size = firstChunk // the first chunk ran out
		case c.took != 0:
			size = 2 * cap(c.free)
		}
		c.free = make([]T, min(max(size, firstChunk), maxChunk))
	}
	c.took++
	n := len(c.free) - 1
	slot := &c.free[n]
	c.free = c.free[:n]
	return slot
}

// seal ends the run's generation: it lets the chunk go and keeps what
// the run handed out as the next generation's first chunk size. It
// writes nothing on a run that handed out nothing, unless the trie is
// private: a shared trie's runs are only read.
func (c *chunks[T]) seal(private bool) {
	if private || c.took != 0 || c.free != nil {
		c.free, c.last, c.took = nil, c.took, 0
	}
}

// seal ends a generation before a hashing: it counts it and lets go of
// the chunks, after which the trie holds no unhashed node and its
// handle may be shared. It writes nothing on a trie that holds none, as
// a shared one does.
func (t *Trie) seal() {
	private := false
	if c := cacheOf(t.root); c != nil && c.refLen == 0 {
		t.gen++
		private = true
	}
	t.leaves.seal(private)
	for d := range t.fulls {
		t.fulls[d].seal(private)
	}
}

// young reports whether the node of c was made in the trie's current or
// previous generation, so that what replaces it will most likely be
// replaced at the next flush too.
func (t *Trie) young(c *nodeCache) bool { return c.born != 0 && c.born >= t.gen }

// newFull returns an empty branch at depth nibbles below the root, from
// the trie's chunks when young.
func (t *Trie) newFull(depth int, young bool) *fullNode {
	var fn *fullNode
	if young && depth < chunkDepths {
		fn = t.fulls[depth].take()
	} else {
		fn = new(fullNode)
	}
	fn.cache.born = t.gen + 1
	return fn
}

// newShort returns a short node (see init), a leaf from the trie's
// chunks when young.
func (t *Trie) newShort(key []byte, val node, value []byte, young bool) *shortNode {
	var sn *shortNode
	if young && val == nil {
		sn = t.leaves.take()
	} else {
		sn = new(shortNode)
	}
	sn.cache.born = t.gen + 1
	return sn.init(key, val, value)
}

// mutableFull returns the branch to write for a mutation through fn, at
// depth: fn itself when it has not been hashed since this trie made it
// (no other trie can reach it), otherwise a copy with an empty cache.
func (t *Trie) mutableFull(fn *fullNode, depth int) *fullNode {
	if fn.cache.refLen == 0 {
		return fn
	}
	cp := t.newFull(depth, t.young(&fn.cache))
	cp.children = fn.children
	return cp
}

// mutableShort is mutableFull for short nodes.
func (t *Trie) mutableShort(sn *shortNode) *shortNode {
	if sn.cache.refLen == 0 {
		return sn
	}
	return t.newShort(sn.key, sn.val, sn.value, t.young(&sn.cache))
}

// below returns what sits under the first k nibbles of sn's key: the
// rest of sn, or its child when k covers the whole key. A leaf's rest is
// a new leaf of its key's suffix, or its bare value if that is empty.
func (t *Trie) below(sn *shortNode, k int) node {
	switch {
	case sn.val == nil && k == len(sn.key):
		return valueNode(sn.value)
	case k == len(sn.key):
		return sn.val
	}
	return t.newShort(sn.key[k:], sn.val, sn.value, t.young(&sn.cache))
}

// insert stores v under the nibbles k below n, which sits depth nibbles
// below the root.
func (t *Trie) insert(n node, k []byte, depth int, v []byte) node {
	if h, ok := n.(hashNode); ok {
		// The resolved node is hashed, so the mutation below lands in a
		// copy of it; the reference itself stays as it is for its sharers.
		n = mustResolve(t.db, h)
	}
	if len(k) == 0 {
		switch cur := n.(type) {
		case *fullNode:
			cur = t.mutableFull(cur, depth)
			cur.children[16] = valueNode(v)
			return cur
		case *shortNode:
			// The new value terminates above an existing subtree: make a
			// branch holding the value and push the short node down one
			// nibble.
			branch := t.newFull(depth, t.young(&cur.cache))
			branch.children[16] = valueNode(v)
			branch.children[cur.key[0]] = t.below(cur, 1)
			return branch
		default: // nil or valueNode: create/overwrite
			return valueNode(v)
		}
	}
	switch cur := n.(type) {
	case nil:
		return t.newShort(k, nil, v, false)
	case valueNode:
		// Existing value at this exact prefix: push it into a branch.
		branch := t.newFull(depth, false)
		branch.children[16] = cur
		branch.children[k[0]] = t.insert(nil, k[1:], depth+1, v)
		return branch
	case *shortNode:
		match := commonPrefix(k, cur.key)
		switch {
		case match == len(cur.key) && cur.val != nil:
			cur = t.mutableShort(cur)
			cur.val = t.insert(cur.val, k[match:], depth+match, v)
			return cur
		case match == len(k) && cur.val == nil && match == len(cur.key):
			// An overwrite: in place when the leaf is this trie's own.
			cur = t.mutableShort(cur)
			cur.value = v
			return cur
		}
		// Split: branch at the divergence point, the existing node under
		// its next nibble or, for a leaf whose key is a proper prefix of
		// k, in the value slot.
		young := t.young(&cur.cache)
		branch := t.newFull(depth+match, young)
		if match == len(cur.key) {
			branch.children[16] = valueNode(cur.value)
		} else {
			branch.children[cur.key[match]] = t.below(cur, match+1)
		}
		// New value goes under its next nibble (or the value slot).
		newKey := k[match:]
		if len(newKey) == 0 {
			branch.children[16] = valueNode(v)
		} else {
			branch.children[newKey[0]] = t.insert(nil, newKey[1:], depth+match+1, v)
		}
		if match == 0 {
			return branch
		}
		return t.newShort(k[:match], branch, nil, young)
	case *fullNode:
		cur = t.mutableFull(cur, depth)
		cur.children[k[0]] = t.insert(cur.children[k[0]], k[1:], depth+1, v)
		return cur
	default:
		return n
	}
}

// deleteNode removes the nibbles k below n, which sits depth nibbles
// below the root.
func (t *Trie) deleteNode(n node, k []byte, depth int) node {
	if h, ok := n.(hashNode); ok {
		n = mustResolve(t.db, h)
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
		if cur.val == nil {
			if len(k) == len(cur.key) {
				return nil
			}
			return cur // only a proper prefix of k is stored
		}
		child := t.deleteNode(cur.val, k[len(cur.key):], depth+len(cur.key))
		switch child.(type) {
		case nil:
			return nil
		case *shortNode, valueNode:
			// Merge chains of short nodes back together.
			return t.join(cur.key, child, t.young(&cur.cache))
		}
		cur = t.mutableShort(cur)
		cur.val = child
		return cur
	case *fullNode:
		young := t.young(&cur.cache)
		cur = t.mutableFull(cur, depth)
		if len(k) == 0 {
			cur.children[16] = nil
		} else {
			cur.children[k[0]] = t.deleteNode(cur.children[k[0]], k[1:], depth+1)
		}
		return t.collapse(cur, young)
	default:
		return n
	}
}

// collapse reduces a branch with fewer than two live slots back into a
// short node (or nil), keeping the trie canonical so roots stay unique.
// A lone surviving child that is still an unresolved reference must be
// fetched first: if it turns out to be a short node its key has to merge
// with the branch nibble, and skipping that would change the root. young
// is what the branch replaced was (see young).
func (t *Trie) collapse(branch *fullNode, young bool) node {
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
			child = mustResolve(t.db, h)
		}
		return t.join([]byte{byte(live)}, child, young)
	default:
		return branch
	}
}

// join returns the node that reaches child through the nibbles prefix: a
// short node child's key merges into prefix, and a bare value becomes
// the leaf of prefix.
func (t *Trie) join(prefix []byte, child node, young bool) node {
	switch cur := child.(type) {
	case *shortNode:
		var buf [nibbleBuf]byte
		return t.newShort(append(append(buf[:0], prefix...), cur.key...), cur.val, cur.value, young)
	case valueNode:
		return t.newShort(prefix, nil, cur, young)
	}
	return t.newShort(prefix, child, nil, young)
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
// root of 32 bytes or more keeps its hash as its reference, so on a trie
// where nothing changed since the last call this reads it; where a few
// paths changed, only those paths are encoded and hashed again.
func (t *Trie) RootHash() types.Hash {
	t.seal()
	switch root := t.root.(type) {
	case nil:
		return EmptyRoot
	case hashNode:
		// An untouched persisted trie is already its own commitment.
		return types.Hash(root)
	}
	c := cacheOf(t.root)
	if c != nil && c.refLen == hashRef {
		return c.ref
	}
	h := hashers.Get().(*hasher)
	defer hashers.Put(h)
	h.hash(t.root)
	if c != nil && c.refLen == hashRef {
		return c.ref
	}
	// A root smaller than 32 bytes, or a bare value: its hash is the
	// digest of its encoding, taken again on every call.
	return types.Keccak(h.encode(t.root))
}

// hasher encodes nodes into one scratch buffer. A node is encoded only
// once every node below it has its reference, so the buffer is free
// again whenever the next node begins: one buffer serves a whole
// RootHash, Commit or Walk, and no node keeps its encoding.
type hasher struct{ buf []byte }

// hashers recycles the scratch buffers; one grows to the largest node
// encoding once (a branch of sixteen hash references is 532 bytes).
var hashers = sync.Pool{New: func() any { return &hasher{buf: make([]byte, 0, 1024)} }}

// hash fills the reference of n and of every node below it made since
// the last hashing. A node that has its reference already is not
// descended: no other trie may write below it.
func (h *hasher) hash(n node) {
	switch cur := n.(type) {
	case *shortNode:
		if cur.cache.refLen == 0 {
			h.hash(cur.val) // nil for a leaf
			cur.cache.set(h.encode(cur))
		}
	case *fullNode:
		if cur.cache.refLen == 0 {
			for _, child := range cur.children[:16] {
				h.hash(child)
			}
			cur.cache.set(h.encode(cur))
		}
	}
}

// encode writes the canonical RLP encoding of n, whose children are
// hashed, into the scratch buffer. The bytes are valid until the next
// encode.
func (h *hasher) encode(n node) []byte {
	out := appendEncoding(h.buf[:0], n)
	h.buf = out[:0] // keep what the buffer grew to
	return out
}

// appendEncoding appends the canonical RLP encoding of n, whose children
// are hashed.
func appendEncoding(out []byte, n node) []byte {
	switch cur := n.(type) {
	case valueNode:
		return rlp.AppendString(out, cur)
	case *shortNode:
		return cur.appendEncoding(out)
	case *fullNode:
		return cur.appendEncoding(out)
	default: // nil
		return append(out, 0x80)
	}
}

// cacheOf returns the cache of a short or full node, nil for any other.
func cacheOf(n node) *nodeCache {
	switch cur := n.(type) {
	case *shortNode:
		return &cur.cache
	case *fullNode:
		return &cur.cache
	}
	return nil
}

// appendEncoding appends the short node — the list of its hex-prefix key
// and either its value (a leaf) or the reference to its child (an
// extension), measured first so the list header is written once.
func (sn *shortNode) appendEncoding(out []byte) []byte {
	var keyBuf [33]byte // a secure trie's keys are at most 64 nibbles
	isLeaf := sn.val == nil
	key := appendHexPrefix(keyBuf[:0], sn.key, isLeaf)
	size := rlp.StringSize(key)
	if isLeaf {
		size += rlp.StringSize(sn.value)
	} else {
		size += refSize(sn.val)
	}
	out = rlp.AppendListHeader(out, size)
	out = rlp.AppendString(out, key)
	if isLeaf {
		return rlp.AppendString(out, sn.value)
	}
	return appendRef(out, sn.val)
}

// appendEncoding appends the branch — sixteen child references and the
// value slot — measured first so the list header is written once.
func (fn *fullNode) appendEncoding(out []byte) []byte {
	value, _ := fn.children[16].(valueNode)
	size := rlp.StringSize(value)
	for _, child := range fn.children[:16] {
		size += refSize(child)
	}
	out = rlp.AppendListHeader(out, size)
	for _, child := range fn.children[:16] {
		out = appendRef(out, child)
	}
	return rlp.AppendString(out, value)
}

// embedLimit is the encoded size from which a child is referenced by its
// Keccak hash instead of being embedded verbatim in its parent (MPT spec).
const embedLimit = len(types.Hash{})

// hashRef is the refLen of a node referenced by its hash.
const hashRef = uint8(len(types.Hash{}))

// set fills the cache from the node's encoding.
func (c *nodeCache) set(enc []byte) {
	if len(enc) < embedLimit {
		c.refLen = uint8(copy(c.ref[:], enc))
		return
	}
	keccak.Sum256Into((*[32]byte)(&c.ref), enc)
	c.refLen = hashRef
}

// refSize returns the number of bytes appendRef writes for a hashed
// child.
func refSize(n node) int {
	switch cur := n.(type) {
	case nil:
		return 1
	case valueNode:
		if size := rlp.StringSize(cur); size < embedLimit {
			return size
		}
	case *shortNode:
		return cur.cache.refSize()
	case *fullNode:
		return cur.cache.refSize()
	}
	return 1 + len(types.Hash{}) // a hash reference: a 32-byte string
}

// appendRef appends the parent-embedded reference to a hashed child.
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
		return cur.cache.appendRef(out)
	case *fullNode:
		return cur.cache.appendRef(out)
	default:
		return out
	}
}

// refSize is the number of bytes appendRef writes.
func (c *nodeCache) refSize() int {
	if c.refLen != hashRef {
		return int(c.refLen)
	}
	return 1 + len(c.ref)
}

// appendRef appends the node's reference as its parent embeds it: the
// encoding itself, or the hash as a 32-byte string.
func (c *nodeCache) appendRef(out []byte) []byte {
	if c.refLen != hashRef {
		return append(out, c.ref[:c.refLen]...)
	}
	return rlp.AppendString(out, c.ref[:])
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
		nibbles := append(append([]byte{}, prefix...), cur.key...)
		if cur.val == nil {
			visit(nibbles, cur.value)
		} else {
			walk(db, cur.val, nibbles, visit)
		}
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
