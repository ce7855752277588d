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
	h := root
	t.hash = &h
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
// so the root hash alone always reopens the trie.
func (t *Trie) Commit(w Writer) int {
	if t.root == nil {
		return 0
	}
	return commitNode(t.root, w, true)
}

// Commit on a secure trie commits the underlying node trie.
func (s *SecureTrie) Commit(w Writer) int { return s.inner.Commit(w) }

func commitNode(n node, w Writer, isRoot bool) int {
	switch cur := n.(type) {
	case *shortNode:
		if cur.cache.stored {
			return 0
		}
		enc := encoding(cur)
		written := 0
		if _, leaf := cur.val.(valueNode); !leaf {
			// A leaf's value is part of enc: only an extension's child can
			// hold records of its own.
			written = commitChildren(cur.val, w)
		}
		if len(enc) >= 32 || isRoot {
			w.Put(cur.cache.hashRef(enc)[:], enc)
			cur.cache.stored = true
			written++
		}
		return written
	case *fullNode:
		if cur.cache.stored {
			return 0
		}
		enc := encoding(cur)
		written := 0
		for i := 0; i < 16; i++ {
			if cur.children[i] != nil {
				written += commitChildren(cur.children[i], w)
			}
		}
		if len(enc) >= 32 || isRoot {
			w.Put(cur.cache.hashRef(enc)[:], enc)
			cur.cache.stored = true
			written++
		}
		return written
	case valueNode:
		// Reached only at the root or in a branch's sixteen slots (a split
		// 1-nibble leaf): a leaf's value and a branch's value slot are part
		// of their node's own record. A bare value whose encoding reaches
		// 32 bytes is referenced by hash like any other node. valueNode
		// carries no cache, so it is re-stored each commit — the shape
		// only arises with variable-length raw keys, never in the
		// fixed-width secure tries state uses.
		if rlp.StringSize(cur) >= 32 || isRoot { // measured, not encoded: most values are small
			enc := encoding(cur)
			h := types.Keccak(enc)
			w.Put(h[:], enc)
			return 1
		}
		return 0
	default:
		// hashNode is already persisted; nil stores nothing.
		return 0
	}
}

// commitChildren recurses into a child subtree. Children embedded in
// the parent encoding (enc < 32 bytes) cannot themselves contain
// by-hash references — a 32-byte ref would blow the parent past the
// embedding limit — so only hash-referenced children can hold
// unpersisted descendants.
func commitChildren(n node, w Writer) int {
	return commitNode(n, w, false)
}

// resolve fetches and decodes the node referenced by h, returning the
// stored bytes beside it. The decoded node round-trips to exactly enc;
// its cache is seeded so a later hash walk does not re-encode or re-hash
// it.
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
	switch cur := n.(type) {
	case *shortNode:
		cur.cache = nodeCache{enc: enc, hash: types.Hash(h), hashed: true, stored: true}
	case *fullNode:
		cur.cache = nodeCache{enc: enc, hash: types.Hash(h), hashed: true, stored: true}
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
		// commitNode).
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
		nibbles, isLeaf, err := hexPrefixDecode(kb)
		if err != nil {
			return nil, err
		}
		sn := &shortNode{key: nibbles}
		if isLeaf {
			vb, err := elems[1].Bytes()
			if err != nil {
				return nil, err
			}
			v := make(valueNode, len(vb))
			copy(v, vb)
			sn.val = v
		} else {
			child, err := decodeRef(elems[1])
			if err != nil {
				return nil, err
			}
			if child == nil {
				return nil, fmt.Errorf("extension node with empty child")
			}
			sn.val = child
		}
		return sn, nil
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
		if err == nil {
			// An embedded node is as shared as the stored parent it came
			// in: fill its cache, or it would pass for a node this trie
			// made itself and be written in place (see mutable).
			encoding(n)
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

// hexPrefixDecode inverts appendHexPrefix (Yellow Paper Appendix C).
func hexPrefixDecode(b []byte) (nibbles []byte, isLeaf bool, err error) {
	if len(b) == 0 {
		return nil, false, fmt.Errorf("empty hex-prefix key")
	}
	flag := b[0] >> 4
	if flag > 3 {
		return nil, false, fmt.Errorf("bad hex-prefix flag %d", flag)
	}
	isLeaf = flag&2 != 0
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
