// This file implements trie persistence: committing referenced nodes
// into a flat node store and reopening a trie lazily from a root hash.
// The store holds `Keccak(enc) -> enc` for every node a parent
// references by hash — its encoding is >= 32 bytes; smaller nodes stay
// embedded in their parents, exactly as they do in the in-memory
// encoding — plus the root node unconditionally so a root hash alone is
// a complete handle, and nothing else: a leaf's value is part of the
// leaf's record and gets none of its own.

package trie

import (
	"bytes"
	"fmt"

	"sereth/internal/rlp"
	"sereth/internal/types"
)

// NodeReader resolves a persisted node encoding by its Keccak hash.
// store.Store satisfies it.
type NodeReader interface {
	Get(key []byte) ([]byte, bool)
}

// Writer receives `hash -> encoding` pairs from Commit. store.Batch
// satisfies it, so a whole block boundary flushes as one append.
type Writer interface {
	Put(key, value []byte)
}

// hashNode is an unresolved by-hash reference to a node living in a
// NodeReader. It appears in tries opened via NewFromRoot and in parents
// path-copied above still-unresolved subtrees.
type hashNode types.Hash

// NewFromRoot opens the trie committed at root against db. Nodes resolve
// lazily on access; nothing is read up front. Opening EmptyRoot yields
// an empty trie.
func NewFromRoot(db NodeReader, root types.Hash) *Trie {
	t := &Trie{db: db}
	if root == EmptyRoot || root == (types.Hash{}) {
		return t
	}
	t.root = hashNode(root)
	return t
}

// NewSecureFromRoot opens a secure trie committed at root against db.
func NewSecureFromRoot(db NodeReader, root types.Hash) *SecureTrie {
	return &SecureTrie{inner: *NewFromRoot(db, root)}
}

// Commit writes every node reachable from the root that is not already
// persisted into w as `Keccak(enc) -> enc`, marks those nodes stored,
// and returns the number of nodes written. Because mutation never
// writes a stored node (it is hashed, so it is path-copied) and Commit
// short-circuits on the stored flag, a commit after N updates touches
// exactly the fresh paths — the PR-3 dirty set — not the whole trie. The
// root node is stored even when its encoding is shorter than 32 bytes,
// so the root hash alone always reopens the trie. Commit hashes the trie
// first; a node it writes is encoded again into the hasher's buffer,
// under the reference hashing left it, so a hashed trie commits without
// a digest.
func (t *Trie) Commit(w Writer) int {
	t.seal()
	if t.root == nil {
		return 0
	}
	h := hashers.Get().(*hasher)
	defer hashers.Put(h)
	h.hash(t.root)
	return h.commit(t.root, w, true)
}

// Commit on a secure trie commits the underlying node trie.
func (s *SecureTrie) Commit(w Writer) int { return s.inner.Commit(w) }

// commit writes the records of the hashed node n and of the unstored
// nodes below it.
func (h *hasher) commit(n node, w Writer, isRoot bool) int {
	if v, ok := n.(valueNode); ok {
		// Reached only at the root or in a branch's sixteen slots (a split
		// 1-nibble leaf): a leaf's value and a branch's value slot are part
		// of their node's own record. A bare value whose encoding reaches
		// 32 bytes is referenced by hash like any other node. valueNode
		// carries no cache, so it is re-stored each commit — the shape
		// only arises with variable-length raw keys, never in the
		// fixed-width secure tries state uses.
		if rlp.StringSize(v) < embedLimit && !isRoot { // measured, not encoded: most values are small
			return 0
		}
		enc := h.encode(v)
		key := types.Keccak(enc)
		w.Put(key[:], enc)
		return 1
	}
	// hashNode is already persisted and nil stores nothing. A node
	// embedded in its parent (encoding < 32 bytes) has no record, and
	// holds none below it: a 32-byte reference would blow it past the
	// embedding limit.
	c := cacheOf(n)
	if c == nil || c.stored || (c.refLen != hashRef && !isRoot) {
		return 0
	}
	written := 0
	switch cur := n.(type) {
	case *shortNode:
		// A leaf's value is part of its record: only an extension's child
		// can hold records of its own.
		written = h.commit(cur.val, w, false)
	case *fullNode:
		for _, child := range cur.children[:16] {
			written += h.commit(child, w, false)
		}
	}
	enc := h.encode(n)
	if c.refLen == hashRef {
		w.Put(c.ref[:], enc)
	} else { // a root smaller than 32 bytes, stored under its digest
		key := types.Keccak(enc)
		w.Put(key[:], enc)
	}
	c.stored = true
	return written + 1
}

// resolve fetches and decodes the node referenced by h, returning the
// stored bytes beside it. The decoded node round-trips to exactly enc;
// its reference is seeded from h (or from enc, for a root smaller than
// 32 bytes), so a later hash walk neither encodes nor hashes it, and
// enc is not kept.
func resolve(db NodeReader, h hashNode) (node, []byte, error) {
	if db == nil {
		return nil, nil, fmt.Errorf("trie: no node store attached, cannot resolve %x", types.Hash(h))
	}
	enc, ok := db.Get(h[:])
	if !ok {
		return nil, nil, fmt.Errorf("trie: missing node %x", types.Hash(h))
	}
	n, err := decodeNode(enc)
	if err != nil {
		return nil, nil, fmt.Errorf("trie: corrupt node %x: %v", types.Hash(h), err)
	}
	if c := cacheOf(n); c != nil {
		if len(enc) < embedLimit {
			c.set(enc)
		} else {
			c.ref, c.refLen = types.Hash(h), hashRef
		}
		c.stored = true
	}
	return n, enc, nil
}

// mustResolve is resolve for a lookup or a mutation. Missing or corrupt
// nodes panic: they mean the store backing an opened trie lost data,
// which no caller can meaningfully recover from mid-lookup.
func mustResolve(db NodeReader, h hashNode) node {
	n, _, err := resolve(db, h)
	if err != nil {
		panic(err.Error())
	}
	return n
}

// decodeNode parses a canonical node encoding back into its in-memory
// form. Inline (embedded) children decode recursively; 32-byte string
// children become hashNode references resolved on demand.
func decodeNode(enc []byte) (node, error) {
	it, err := rlp.Decode(enc)
	if err != nil {
		return nil, err
	}
	return decodeNodeItem(it)
}

func decodeNodeItem(it rlp.Item) (node, error) {
	if it.Kind() == rlp.KindString {
		// A hash-referenced bare value (see the valueNode case in
		// commit).
		b, _ := it.Bytes()
		v := make(valueNode, len(b))
		copy(v, b)
		return v, nil
	}
	elems, err := it.Items()
	if err != nil {
		return nil, fmt.Errorf("node is not a list: %w", err)
	}
	switch len(elems) {
	case 2:
		kb, err := elems[0].Bytes()
		if err != nil {
			return nil, err
		}
		var buf [nibbleBuf]byte
		nibbles, isLeaf, err := hexPrefixDecode(buf[:0], kb)
		if err != nil {
			return nil, err
		}
		if isLeaf {
			vb, err := elems[1].Bytes()
			if err != nil {
				return nil, err
			}
			return new(shortNode).init(nibbles, nil, bytes.Clone(vb)), nil
		}
		child, err := decodeRef(elems[1])
		if err != nil {
			return nil, err
		}
		if child == nil {
			return nil, fmt.Errorf("extension node with empty child")
		}
		return new(shortNode).init(nibbles, child, nil), nil
	case 17:
		fn := &fullNode{}
		for i := 0; i < 16; i++ {
			child, err := decodeRef(elems[i])
			if err != nil {
				return nil, fmt.Errorf("branch child %d: %w", i, err)
			}
			fn.children[i] = child
		}
		vb, err := elems[16].Bytes()
		if err != nil {
			return nil, err
		}
		if len(vb) > 0 {
			v := make(valueNode, len(vb))
			copy(v, vb)
			fn.children[16] = v
		}
		return fn, nil
	default:
		return nil, fmt.Errorf("node list has %d elements", len(elems))
	}
}

// decodeRef turns one child slot back into a node: empty string -> nil,
// 32-byte string -> hashNode, any other string -> an embedded bare
// value (appendRef embeds small valueNodes verbatim; an embedded
// value never decodes to exactly 32 bytes because its encoding would
// then be 33 and referenced by hash), nested list -> embedded node
// decoded inline.
func decodeRef(it rlp.Item) (node, error) {
	if it.Kind() == rlp.KindList {
		n, err := decodeNodeItem(it)
		if c := cacheOf(n); c != nil && err == nil {
			// An embedded node is as shared as the stored parent it came
			// in: fill its reference, which is its encoding, or it would
			// pass for a node this trie made itself and be written in
			// place (see mutableFull). What is below it came filled.
			var buf [embedLimit]byte
			c.set(appendEncoding(buf[:0], n))
		}
		return n, err
	}
	b, err := it.Bytes()
	if err != nil {
		return nil, err
	}
	switch len(b) {
	case 0:
		return nil, nil
	case len(types.Hash{}):
		var h hashNode
		copy(h[:], b)
		return h, nil
	default:
		v := make(valueNode, len(b))
		copy(v, b)
		return v, nil
	}
}

// hexPrefixDecode inverts appendHexPrefix (Yellow Paper Appendix C),
// appending the nibbles to dst.
func hexPrefixDecode(dst, b []byte) (nibbles []byte, isLeaf bool, err error) {
	if len(b) == 0 {
		return nil, false, fmt.Errorf("empty hex-prefix key")
	}
	flag := b[0] >> 4
	if flag > 3 {
		return nil, false, fmt.Errorf("bad hex-prefix flag %d", flag)
	}
	isLeaf = flag&2 != 0
	nibbles = dst
	if flag&1 == 1 { // odd length: low nibble of byte 0 is the first nibble
		nibbles = append(nibbles, b[0]&0x0f)
	} else if b[0]&0x0f != 0 {
		return nil, false, fmt.Errorf("non-zero padding nibble")
	}
	for _, c := range b[1:] {
		nibbles = append(nibbles, c>>4, c&0x0f)
	}
	return nibbles, isLeaf, nil
}
