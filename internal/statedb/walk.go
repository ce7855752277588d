// This file implements the reachable-records walk over a whole state:
// the account trie, every account's storage trie and every referenced
// code blob. One walk serves the export of a head (the records visited
// ARE the snapshot), the verification a recovery or an import runs
// before it trusts a root — the panicking lazy resolvers (mustResolve,
// decodeAccount) are the wrong tool to find out — and the mark of a
// mark-and-sweep compaction.

package statedb

import (
	"fmt"

	"sereth/internal/trie"
	"sereth/internal/types"
)

// Walk visits every record a store holds for this state, as
// visit(key, value): the trie nodes of the account trie and of each
// account's storage trie under their hashes, and each code blob under
// its 'c'-prefixed key — the set CommitTo writes for the state into an
// empty store, without the nodes earlier blocks superseded. It serves
// every kind of state: what is in memory is read as it stands (nothing
// is written, no node is marked stored, so a post state other chains
// share is walked beside its readers and commits in full afterwards),
// what is not — all of a state opened with OpenAt, the untouched part
// of a recovered one — is fetched through the state's reader and must
// be present, intact and decodable: the first record that is not is
// the error returned. Like Copy it flushes first, which on a flushed
// state writes nothing. O(state size). marked is trie.Walk's mark set:
// what is below a node in it, storage tries and code blobs included,
// is skipped.
func (s *StateDB) Walk(marked map[types.Hash]struct{}, visit func(key, value []byte)) error {
	s.Root()
	// An account leaf names its storage and code by hash; the accounts in
	// memory answer for the hashes they hold, the reader for the rest.
	tries := make(map[types.Hash]*trie.SecureTrie)
	codes := make(map[types.Hash][]byte)
	for _, acc := range s.accounts {
		if acc.storageTrie != nil {
			tries[acc.storageTrie.RootHash()] = acc.storageTrie
		}
		if len(acc.code) > 0 {
			codes[*acc.codeHash] = acc.code
		}
	}
	return s.accTrie.Walk(marked, visit, func(enc []byte) error {
		_, _, storageRoot, codeHash, err := accountFields(enc)
		if err != nil {
			return fmt.Errorf("statedb: walk: account: %w", err)
		}
		storage, ok := tries[storageRoot]
		if !ok {
			storage = trie.NewSecureFromRoot(s.db, storageRoot)
		}
		if err := storage.Walk(marked, visit, nil); err != nil {
			return fmt.Errorf("statedb: walk: storage: %w", err)
		}
		if codeHash == EmptyCodeHash {
			return nil
		}
		key := codeKey(codeHash)
		code, ok := codes[codeHash]
		if !ok {
			if s.db != nil {
				code, ok = s.db.Get(key)
			}
			if !ok {
				return fmt.Errorf("statedb: walk: missing code blob %x", codeHash)
			}
			if types.Keccak(code) != codeHash {
				return fmt.Errorf("statedb: walk: code blob %x content mismatch", codeHash)
			}
		}
		visit(key, code)
		return nil
	})
}

// VerifyState walks the complete state committed at root in kv and
// returns the first inconsistency. nil means a StateDB opened at root
// can serve any read without hitting missing or corrupt records.
func VerifyState(kv Reader, root types.Hash) error {
	return OpenAt(kv, root).Walk(nil, func(_, _ []byte) {})
}
