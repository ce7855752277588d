// This file implements the reachable-records walk: every record a node
// store holds for a trie, visited from the root down. It is what an
// export copies, what a recovery or an import verifies before it trusts
// a root, and the mark of a mark-and-sweep compaction. Normal operation
// resolves nodes through mustResolve, which panics on damage because a
// lookup has no way to recover; the walk returns the damage instead.

package trie

import (
	"fmt"

	"sereth/internal/types"
)

// Walk visits every record a node store holds for the trie — exactly the
// set Commit writes into an empty store: the root node under the root
// hash whatever its size, and every node below it whose encoding reaches
// 32 bytes, as visit(hash, encoding). onLeaf, when non-nil, receives
// every stored value (so a state-level walk can recurse into storage
// tries and code blobs); its error ends the walk.
//
// Nodes in memory are encoded again, from their children's references,
// into one scratch buffer that visit must copy from, and nothing is
// written on the way — no node is marked stored — so a hashed trie that
// other holders read (a chain's post state) can be walked beside them
// and still commits in full afterwards; an unhashed trie is hashed
// first, as Copy does. A hashed trie in memory is walked without a
// digest. Unresolved references are fetched through the trie's reader
// and must be present, hash to their reference and decode: the first
// that does not is the error returned, which makes the walk of a trie
// opened from a root the integrity check of that root. O(trie): not
// something to run per block.
func (t *Trie) Walk(visit func(hash, enc []byte), onLeaf func(val []byte) error) error {
	if t.root == nil {
		return nil
	}
	root := t.RootHash()
	h := hashers.Get().(*hasher)
	defer hashers.Put(h)
	w := walker{db: t.db, h: h, visit: visit, onLeaf: onLeaf}
	return w.node(t.root, &root)
}

// Walk on a secure trie walks the underlying node trie.
func (s *SecureTrie) Walk(visit func(hash, enc []byte), onLeaf func(val []byte) error) error {
	return s.inner.Walk(visit, onLeaf)
}

type walker struct {
	db     NodeReader
	h      *hasher
	visit  func(hash, enc []byte)
	onLeaf func(val []byte) error
}

// node visits n's own record, if it has one, and then what is below it.
// at is the hash n is stored under when that does not depend on its
// size: the root's.
func (w *walker) node(n node, at *types.Hash) error {
	switch cur := n.(type) {
	case nil:
		return nil
	case hashNode:
		got, enc, err := resolve(w.db, cur)
		if err != nil {
			return err
		}
		if types.Keccak(enc) != types.Hash(cur) {
			return fmt.Errorf("trie: node %x content mismatch", types.Hash(cur))
		}
		w.visit(cur[:], enc)
		return w.below(got)
	case valueNode:
		// A bare value at the root or in a branch slot (a split 1-nibble
		// leaf) is referenced by hash like any other node once it reaches
		// 32 bytes; it carries no cache.
		if enc := w.h.encode(cur); at != nil {
			w.visit(at[:], enc)
		} else if len(enc) >= embedLimit {
			h := types.Keccak(enc)
			w.visit(h[:], enc)
		}
	case *shortNode, *fullNode:
		w.record(cur, at)
	}
	return w.below(n)
}

// record visits the record of a hashed in-memory node: one below the
// root has a record exactly when its parent references it by hash, the
// hash its cache holds.
func (w *walker) record(n node, at *types.Hash) {
	switch c := cacheOf(n); {
	case at != nil:
		w.visit(at[:], w.h.encode(n))
	case c.refLen == hashRef:
		w.visit(c.ref[:], w.h.encode(n))
	}
}

// below walks the children of a node whose own record has been visited.
// A leaf's value and a branch's value slot are part of that record,
// whatever their size.
func (w *walker) below(n node) error {
	switch cur := n.(type) {
	case valueNode:
		return w.leaf(cur)
	case *shortNode:
		if cur.val == nil {
			return w.leaf(cur.value)
		}
		return w.node(cur.val, nil)
	case *fullNode:
		for _, child := range cur.children[:16] {
			if err := w.node(child, nil); err != nil {
				return err
			}
		}
		if v, ok := cur.children[16].(valueNode); ok {
			return w.leaf(v)
		}
	}
	return nil
}

func (w *walker) leaf(v []byte) error {
	if w.onLeaf == nil {
		return nil
	}
	return w.onLeaf(v)
}
