// This file implements state persistence: committing the account and
// storage tries (plus code blobs) into a flat store at block
// boundaries, and reopening a StateDB lazily from a persisted root so a
// restarted node recovers head state without replaying the chain.

package statedb

import (
	"fmt"

	"sereth/internal/rlp"
	"sereth/internal/store"
	"sereth/internal/trie"
	"sereth/internal/types"
)

// Reader resolves persisted trie nodes and code blobs; store.Store
// satisfies it.
type Reader interface {
	Get(key []byte) ([]byte, bool)
}

// EmptyCodeHash is Keccak of empty code — accounts carrying it skip the
// code-blob lookup entirely.
var EmptyCodeHash = types.Keccak(nil)

// codeKey namespaces code blobs in the flat store: 'c' || Keccak(code).
// Trie nodes use their bare 32-byte hash, so the prefix keeps the two
// record families from colliding.
func codeKey(h types.Hash) []byte {
	k := make([]byte, 1+len(h))
	k[0] = 'c'
	copy(k[1:], h[:])
	return k
}

// IsCodeKey reports whether key is a code blob's.
func IsCodeKey(key []byte) bool { return len(key) == 1+len(types.Hash{}) && key[0] == 'c' }

// OpenAt reopens the state committed at root against kv. Accounts and
// storage slots resolve lazily on first access; nothing is read up
// front, so opening head state after a restart is O(1) regardless of
// state size.
func OpenAt(kv Reader, root types.Hash) *StateDB {
	return &StateDB{
		accounts: make(map[types.Address]*account),
		accTrie:  *trie.NewSecureFromRoot(kv, root),
		db:       kv,
	}
}

// CommitTo is StageTo into a batch of its own, one Write to kv, and
// Stored. It returns the committed root and the number of records.
func (s *StateDB) CommitTo(kv store.Store) (types.Hash, int, error) {
	var b store.Batch
	root := s.StageTo(&b)
	if err := kv.Write(&b); err != nil {
		return types.Hash{}, 0, err
	}
	s.Stored()
	return root, b.Len(), nil
}

// StageTo flushes the state, stages into b every trie node not yet
// persisted (the paths the dirty tracking re-encoded) and every code blob
// not yet Stored, and returns the root. It reads no store: what is there
// is remembered on the nodes and accounts that were written or resolved.
func (s *StateDB) StageTo(b *store.Batch) types.Hash {
	root := s.Root() // flush: fold dirty accounts/slots into the tries
	s.accTrie.Commit(b)
	for _, acc := range s.accounts {
		if acc.storageTrie != nil {
			acc.storageTrie.Commit(b)
		}
		if len(acc.code) > 0 && !acc.codeStored {
			if acc.codeHash == nil {
				h := types.Keccak(acc.code)
				acc.codeHash = &h
			}
			b.Put(codeKey(*acc.codeHash), acc.code)
		}
	}
	return root
}

// Stored marks the code blobs StageTo staged as written, once they are.
func (s *StateDB) Stored() {
	for _, acc := range s.accounts {
		acc.codeStored = acc.codeStored || len(acc.code) > 0
	}
}

// resolveAccount materializes addr from the persisted account trie, or
// nil when the state has no backing store or the account is absent.
func (s *StateDB) resolveAccount(addr types.Address) *account {
	if s.db == nil {
		return nil
	}
	enc := s.accTrie.Get(addr[:])
	if enc == nil {
		return nil
	}
	acc, err := decodeAccount(s.db, enc)
	if err != nil {
		panic(fmt.Sprintf("statedb: corrupt account %s: %v", addr.Hex(), err))
	}
	return acc
}

// accountFields parses the canonical account encoding (nonce, balance,
// storage root, code hash).
func accountFields(enc []byte) (nonce, balance uint64, storageRoot, codeHash types.Hash, err error) {
	it, err := rlp.Decode(enc)
	if err != nil {
		return
	}
	elems, err := it.Items()
	if err != nil || len(elems) != 4 {
		err = fmt.Errorf("account is not a 4-list (%v)", err)
		return
	}
	if nonce, err = elems[0].AsUint(); err != nil {
		err = fmt.Errorf("nonce: %w", err)
		return
	}
	if balance, err = elems[1].AsUint(); err != nil {
		err = fmt.Errorf("balance: %w", err)
		return
	}
	rootB, err := elems[2].Bytes()
	if err != nil || len(rootB) != len(storageRoot) {
		err = fmt.Errorf("storage root: %v", err)
		return
	}
	codeHashB, err := elems[3].Bytes()
	if err != nil || len(codeHashB) != len(codeHash) {
		err = fmt.Errorf("code hash: %v", err)
		return
	}
	copy(storageRoot[:], rootB)
	copy(codeHash[:], codeHashB)
	return
}

// decodeAccount parses an account encoding and wires up its
// lazily-resolved storage trie and code blob.
func decodeAccount(kv Reader, enc []byte) (*account, error) {
	nonce, balance, storageRoot, codeHash, err := accountFields(enc)
	if err != nil {
		return nil, err
	}
	acc := &account{
		nonce:    nonce,
		balance:  balance,
		codeHash: &codeHash,
		enc:      enc,
		lazy:     true,
	}
	if storageRoot != trie.EmptyRoot {
		acc.storageTrie = trie.NewSecureFromRoot(kv, storageRoot)
	}
	if codeHash != EmptyCodeHash {
		code, ok := kv.Get(codeKey(codeHash))
		if !ok {
			return nil, fmt.Errorf("missing code blob %x", codeHash)
		}
		acc.code, acc.codeStored = code, true
	}
	return acc, nil
}

// loadSlot reads a storage word through the persisted storage trie of a
// lazy account (zero for any other account). The caller has already
// missed in the overlay, which holds every slot written since the trie
// was last flushed — clears included — so the trie's answer is current.
func (acc *account) loadSlot(key types.Word) types.Word {
	if !acc.lazy || acc.storageTrie == nil {
		return types.ZeroWord
	}
	enc := acc.storageTrie.Get(key[:])
	if enc == nil {
		return types.ZeroWord
	}
	it, err := rlp.Decode(enc)
	if err != nil {
		panic(fmt.Sprintf("statedb: corrupt storage slot: %v", err))
	}
	b, err := it.Bytes()
	if err != nil || len(b) > len(types.Word{}) {
		panic(fmt.Sprintf("statedb: storage slot is not a word (%v)", err))
	}
	var w types.Word
	copy(w[len(w)-len(b):], b)
	return w
}
