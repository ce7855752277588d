// Package statedb implements the mutable world state backing the EVM:
// accounts with nonce/balance/code and per-contract storage words. All
// mutations are journaled so a failing transaction can be rolled back in
// place (the blockchain failure semantics of the paper: the transaction
// stays in the block but has no effect on state). Root computes the
// Merkle commitment over the full state via the secure trie.
//
// The commitment is incremental: every StateDB keeps a persistent
// account trie (plus one persistent storage trie per account) that is
// structure-shared across Copy, and tracks the set of accounts dirtied
// since the last flush. Root re-encodes and re-hashes only the dirty
// paths — O(changes · log n) instead of rebuilding the full account and
// storage tries from scratch on every call.
//
// Contract storage is shared the same way. An account's slots live in a
// chain of immutable generations (newest first) under a private write
// overlay; flush seals the overlay into a new generation and Copy shares
// the chain, so copying a state costs its number of accounts, not its
// number of slots, and successive post states share every slot the block
// between them did not write.
package statedb

import (
	"bytes"
	"fmt"
	"maps"
	"sync"

	"sereth/internal/rlp"
	"sereth/internal/trie"
	"sereth/internal/types"
)

// StateDB is an in-memory journaled world state. Not safe for concurrent
// use; each consumer (miner, validator) works on its own Copy. A flushed
// StateDB (one that Root has been called on and not mutated since) may be
// shared read-only across goroutines — Copy flushes its source, so every
// trie node two copies share is hashed, and a hashed node is never
// written again (see package trie).
type StateDB struct {
	accounts map[types.Address]*account
	journal  []journalEntry
	// pooled is the journals-pool handle a reservation took; nil while
	// journal is an array append alone grew.
	pooled *[]journalEntry
	// dirty is the set of accounts mutated since the last flush; only
	// these are re-encoded into the account trie by Root. Journal undos
	// re-mark their account, so a revert leaves the flush correct.
	dirty map[types.Address]struct{}
	// accTrie is the persistent secure account trie. Its hashed nodes are
	// immutable (a mutation copies them; only nodes made since the last
	// flush are written in place), so Copy, which flushes, shares them
	// wholesale.
	accTrie trie.SecureTrie
	// db backs a state opened from a persisted root (OpenAt): accounts
	// and slots absent from the in-memory maps resolve through it on
	// demand. nil for states built in memory, where the maps are
	// complete.
	db Reader
}

type account struct {
	nonce   uint64
	balance uint64
	code    []byte
	// storage is the private write overlay: every slot written (or
	// restored by a journal revert) since the last flush, the zero word
	// meaning cleared. nil until the first write; flush empties it, so a
	// flushed account reads only shared, immutable structures.
	storage map[types.Word]types.Word
	// gens is the flushed storage below the overlay. The chain is never
	// written after flush links it in and is shared by every copy of the
	// account. Always nil on a lazy account.
	gens *storageGen

	// storageTrie persistently commits the storage; it lags it by the
	// overlay until the next flush. nil, meaning trie.EmptyRoot, until the
	// account's first slot is flushed: a plain account owns no trie. The
	// handle is private per account copy, its nodes are shared.
	storageTrie *trie.SecureTrie
	// enc is the account's RLP encoding as last flushed into the account
	// trie; flush skips the trie update when the encoding is unchanged
	// (e.g. after a snapshot/revert cycle). codeHash caches Keccak(code);
	// trieKey Keccak(address), the account trie's key, from the first flush.
	enc      []byte
	codeHash *types.Hash
	trieKey  types.Hash
	// codeStored remembers that the code blob is in the store, as a trie
	// node does: set when the account is decoded from the store or its
	// blob written, cleared by whatever assigns code (a revert too: at
	// worst a redundant write), so no commit reads a blob to find it.
	codeStored bool
	// lazy marks an account materialized from a persisted trie: its
	// flushed storage is the storage trie itself (see loadSlot), which is
	// already persistent and shared, so it keeps no generations.
	lazy bool
}

// storageGen is one sealed generation of an account's storage: the slots
// one or more flushes wrote, over the older generations below it. A zero
// word is a tombstone hiding an older value; the oldest generation holds
// none. Immutable once linked into an account.
type storageGen struct {
	slots map[types.Word]types.Word
	below *storageGen
}

// genMergeRatio keeps the chain logarithmic: seal merges the generation
// below into the new one while it holds fewer than genMergeRatio times
// as many slots, so every generation is at least that many times the
// size of the one above it, and a slot is re-copied O(log slots) times
// over the life of the account.
const genMergeRatio = 2

// slot returns the account's current value of key (zero when unset):
// the overlay, then the generations newest first, then — on a lazy
// account — the persisted trie.
func (acc *account) slot(key types.Word) types.Word {
	if v, ok := acc.storage[key]; ok {
		return v
	}
	for g := acc.gens; g != nil; g = g.below {
		if v, ok := g.slots[key]; ok {
			return v
		}
	}
	return acc.loadSlot(key)
}

// setSlot writes value (zero clears) into the overlay; the account's
// owner marks it dirty.
func (acc *account) setSlot(key, value types.Word) {
	if acc.storage == nil {
		acc.storage = make(map[types.Word]types.Word)
	}
	acc.storage[key] = value
}

// seal retires the overlay once flush has folded it into the storage
// trie. On a lazy account the trie now answers for those slots and the
// overlay is simply dropped; otherwise it becomes the newest generation,
// merged with the ones below it while they are within genMergeRatio of
// its size. Merging builds a new map: the generations it reads stay as
// they are for the states that share them.
func (acc *account) seal() {
	slots := acc.storage
	acc.storage = nil
	if acc.lazy {
		return
	}
	below := acc.gens
	for below != nil && len(below.slots) < genMergeRatio*len(slots) {
		merged := make(map[types.Word]types.Word, len(below.slots)+len(slots))
		maps.Copy(merged, below.slots)
		maps.Copy(merged, slots)
		slots, below = merged, below.below
	}
	if below == nil {
		// Nothing older to hide: tombstones end here. slots is the overlay
		// or a merge result, private either way.
		maps.DeleteFunc(slots, cleared)
	}
	acc.gens = &storageGen{slots: slots, below: below}
}

// cleared reports a tombstone entry.
func cleared(_, v types.Word) bool { return v.IsZero() }

// journalKind tags one flat journal entry. Every kind records a state
// effect; the chain's contract-activity classification inspects kinds
// via MutatedSince instead of counting opaque closures.
type journalKind uint8

// Journal entry kinds.
const (
	// kindAccountCreate: getOrCreate installed a fresh account struct
	// where the map held none.
	kindAccountCreate journalKind = iota + 1
	// kindNonce: prevU64 holds the previous nonce of acc.
	kindNonce
	// kindBalance: prevU64 holds the previous balance of acc (covers
	// both credits and debits).
	kindBalance
	// kindCode: prevCode/prevCodeHash hold the previous code of acc.
	kindCode
	// kindStorage: key/prevWord hold the slot's previous value (zero when
	// it was unset).
	kindStorage
)

// journalEntry is one typed, flat undo record. Entries live inline in a
// reusable slice: appending a mutation allocates nothing in steady
// state, where the closure journal allocated a closure (plus captured
// variables) per mutation.
type journalEntry struct {
	kind journalKind
	addr types.Address
	// acc is the account struct the mutation applied to; undos restore
	// its fields directly (reverts run LIFO, so struct identity is the
	// same one the original mutation saw).
	acc          *account
	prevU64      uint64
	key          types.Word
	prevWord     types.Word
	prevCode     []byte
	prevCodeHash *types.Hash
}

// revert undoes the entry against s.
func (e *journalEntry) revert(s *StateDB) {
	s.touch(e.addr)
	switch e.kind {
	case kindAccountCreate:
		delete(s.accounts, e.addr)
	case kindNonce:
		e.acc.nonce = e.prevU64
	case kindBalance:
		e.acc.balance = e.prevU64
	case kindCode:
		e.acc.code, e.acc.codeHash, e.acc.codeStored = e.prevCode, e.prevCodeHash, false
	case kindStorage:
		// Written, not deleted: a Root() since the mutation may have sealed
		// the overlay, and only a fresh overlay entry outranks that.
		e.acc.setSlot(e.key, e.prevWord)
	}
}

// New returns an empty state.
func New() *StateDB {
	return &StateDB{accounts: make(map[types.Address]*account)}
}

// touch marks an account dirty for the next flush.
func (s *StateDB) touch(addr types.Address) {
	if s.dirty == nil {
		s.dirty = make(map[types.Address]struct{})
	}
	s.dirty[addr] = struct{}{}
}

func (s *StateDB) getOrCreate(addr types.Address) *account {
	if acc, ok := s.accounts[addr]; ok {
		return acc
	}
	if acc := s.resolveAccount(addr); acc != nil {
		// Materializing a persisted account is NOT journaled: the cached
		// struct is content-equal to the trie, so a revert that crosses
		// this point simply leaves an accurate cache behind. (Journaling
		// it as a create would make flush interpret the reverted map
		// entry as a deletion and drop the account from the trie.)
		s.accounts[addr] = acc
		return acc
	}
	acc := &account{}
	s.accounts[addr] = acc
	s.touch(addr)
	s.journal = append(s.journal, journalEntry{kind: kindAccountCreate, addr: addr})
	return acc
}

// get returns the account for addr. On a state opened from a persisted
// root, a map miss falls through to the account trie; the decoded
// account is returned transiently (NOT installed in the map) so
// concurrent read-only callers sharing this state never race. Mutators
// go through getOrCreate, which does install the materialized account —
// mutation contexts are single-threaded by the StateDB contract.
func (s *StateDB) get(addr types.Address) (*account, bool) {
	if acc, ok := s.accounts[addr]; ok {
		return acc, true
	}
	if acc := s.resolveAccount(addr); acc != nil {
		return acc, true
	}
	return nil, false
}

// Exists reports whether the account is present.
func (s *StateDB) Exists(addr types.Address) bool {
	_, ok := s.get(addr)
	return ok
}

// GetNonce returns the account nonce (0 for absent accounts).
func (s *StateDB) GetNonce(addr types.Address) uint64 {
	if acc, ok := s.get(addr); ok {
		return acc.nonce
	}
	return 0
}

// SetNonce sets the account nonce.
func (s *StateDB) SetNonce(addr types.Address, nonce uint64) {
	acc := s.getOrCreate(addr)
	prev := acc.nonce
	acc.nonce = nonce
	s.touch(addr)
	s.journal = append(s.journal, journalEntry{
		kind: kindNonce, addr: addr, acc: acc, prevU64: prev,
	})
}

// GetBalance returns the account balance (0 for absent accounts).
func (s *StateDB) GetBalance(addr types.Address) uint64 {
	if acc, ok := s.get(addr); ok {
		return acc.balance
	}
	return 0
}

// AddBalance credits the account.
func (s *StateDB) AddBalance(addr types.Address, amount uint64) {
	acc := s.getOrCreate(addr)
	prev := acc.balance
	acc.balance = prev + amount
	s.touch(addr)
	s.journal = append(s.journal, journalEntry{
		kind: kindBalance, addr: addr, acc: acc, prevU64: prev,
	})
}

// SubBalance debits the account. It reports false (and does nothing) when
// funds are insufficient.
func (s *StateDB) SubBalance(addr types.Address, amount uint64) bool {
	acc := s.getOrCreate(addr)
	if acc.balance < amount {
		return false
	}
	prev := acc.balance
	acc.balance = prev - amount
	s.touch(addr)
	s.journal = append(s.journal, journalEntry{
		kind: kindBalance, addr: addr, acc: acc, prevU64: prev,
	})
	return true
}

// GetCode returns the contract code (nil for absent or code-less
// accounts). Callers must not mutate the returned slice.
func (s *StateDB) GetCode(addr types.Address) []byte {
	if acc, ok := s.get(addr); ok {
		return acc.code
	}
	return nil
}

// SetCode installs contract code.
func (s *StateDB) SetCode(addr types.Address, code []byte) {
	acc := s.getOrCreate(addr)
	prev, prevHash := acc.code, acc.codeHash
	acc.code = append([]byte{}, code...)
	acc.codeHash, acc.codeStored = nil, false
	s.touch(addr)
	s.journal = append(s.journal, journalEntry{
		kind: kindCode, addr: addr, acc: acc, prevCode: prev, prevCodeHash: prevHash,
	})
}

// GetState reads a storage word (zero word when unset).
func (s *StateDB) GetState(addr types.Address, key types.Word) types.Word {
	if acc, ok := s.get(addr); ok {
		return acc.slot(key)
	}
	return types.ZeroWord
}

// SetState writes a storage word. Writing the zero word clears the slot.
func (s *StateDB) SetState(addr types.Address, key, value types.Word) {
	acc := s.getOrCreate(addr)
	prev := acc.slot(key)
	acc.setSlot(key, value)
	s.touch(addr)
	s.journal = append(s.journal, journalEntry{
		kind: kindStorage, addr: addr, acc: acc, key: key, prevWord: prev,
	})
}

// Snapshot returns an identifier for the current journal position.
func (s *StateDB) Snapshot() int { return len(s.journal) }

// JournalEntriesPerTx is the shared journal-sizing heuristic for one
// transaction of the buy/set workload: a nonce bump (1), a value
// transfer's debit and credit (2), up to one account creation (1), and
// a contract call's storage writes (~2 for a successful set). Both the
// sequential body reservation (BodyJournalCapacity) and the parallel
// processor's per-transaction reservations derive from this constant,
// so the two execution paths cannot drift apart on sizing.
const JournalEntriesPerTx = 6

// bodyJournalSlack absorbs per-block overhead beyond the per-tx
// heuristic (e.g. coinbase-style bookkeeping added later) so a body
// that fits the estimate never pays a growth copy.
const bodyJournalSlack = 8

// BodyJournalCapacity returns the journal reservation for an
// n-transaction block body.
func BodyJournalCapacity(n int) int { return JournalEntriesPerTx*n + bodyJournalSlack }

// journals recycles undo arrays between bodies; every entry of a pooled
// array is zero.
var journals = sync.Pool{New: func() any { return new([]journalEntry) }}

// ReserveJournal pre-sizes the undo log for at least n more entries.
// Block processors call it once per body so the flat journal never pays
// a growth copy during the replay. An empty journal adopts a pooled
// array when one is large enough; DiscardJournal gives it back.
func (s *StateDB) ReserveJournal(n int) {
	if cap(s.journal)-len(s.journal) >= n {
		return
	}
	if len(s.journal) == 0 {
		if s.pooled == nil {
			s.pooled = journals.Get().(*[]journalEntry)
		}
		if cap(*s.pooled) >= n {
			s.journal = (*s.pooled)[:0]
			return
		}
	}
	j := make([]journalEntry, len(s.journal), len(s.journal)+n)
	copy(j, s.journal)
	s.journal = j
}

// MutatedSince reports whether any state mutation was journaled after
// the given snapshot — the chain's contract-activity check. It inspects
// entry kinds rather than raw journal length so the classification
// stays explicit about WHAT counts as activity: every current kind
// records a state effect, and any future bookkeeping-only kind must opt
// out here instead of silently reading as contract activity.
func (s *StateDB) MutatedSince(snap int) bool {
	if snap < 0 || snap > len(s.journal) {
		panic(fmt.Sprintf("statedb: invalid snapshot id %d (journal length %d)", snap, len(s.journal)))
	}
	for i := snap; i < len(s.journal); i++ {
		switch s.journal[i].kind {
		case kindAccountCreate, kindNonce, kindBalance, kindCode, kindStorage:
			return true
		}
	}
	return false
}

// RevertToSnapshot undoes every mutation made after the snapshot was
// taken. It panics on a snapshot id that was never handed out — a silent
// no-op here would mask journal-accounting bugs as state corruption.
func (s *StateDB) RevertToSnapshot(id int) {
	if id < 0 || id > len(s.journal) {
		panic(fmt.Sprintf("statedb: invalid snapshot id %d (journal length %d)", id, len(s.journal)))
	}
	for i := len(s.journal) - 1; i >= id; i-- {
		s.journal[i].revert(s)
		s.journal[i] = journalEntry{} // release held pointers
	}
	s.journal = s.journal[:id]
}

// DiscardJournal forgets undo history once a body has committed. The
// entry slice goes with it: callers are done reverting, and the state
// they hand on (a block's post state, retained by the chain) must not
// pin a body-sized reservation. A reserved array (or the one that
// outgrew it) goes back to the pool with its used entries cleared: idle,
// it pins nothing, and the next body finds no history to revert into.
func (s *StateDB) DiscardJournal() {
	if s.pooled != nil {
		clear(s.journal)
		*s.pooled = s.journal[:0]
		journals.Put(s.pooled)
		s.pooled = nil
	}
	s.journal = nil
}

// Copy returns an independent state with an empty journal, at a cost of
// the number of accounts in time and of three allocations plus the map:
// the state, one slab of account structs (they live and die together)
// and one of storage-trie handles. Everything below them — trie nodes,
// storage generations, cached encodings, code slices — is immutable and
// shared. Copy flushes the source first, so the shared structures are
// fully hashed and sealed and never written by either side afterwards;
// on an already flushed source (a post state other goroutines read) it
// writes nothing at all.
func (s *StateDB) Copy() *StateDB {
	s.Root()
	cp := &StateDB{
		accounts: make(map[types.Address]*account, len(s.accounts)),
		accTrie:  s.accTrie.Copy(),
		db:       s.db,
	}
	slab := make([]account, 0, len(s.accounts))
	tries := 0
	for addr, acc := range s.accounts {
		// The source is flushed: its overlay is nil (the clone makes one on
		// its first write) and all the struct points to is immutable —
		// SetCode installs a fresh slice. storageTrie is rebound below.
		slab = append(slab, *acc)
		cp.accounts[addr] = &slab[len(slab)-1]
		if acc.storageTrie != nil {
			tries++
		}
	}
	handles := make([]trie.SecureTrie, 0, tries)
	for i := range slab {
		if st := slab[i].storageTrie; st != nil {
			handles = append(handles, st.Copy())
			slab[i].storageTrie = &handles[len(handles)-1]
		}
	}
	return cp
}

// Root computes the Merkle commitment over the entire state: a secure
// trie of RLP-encoded accounts, each committing to its own storage trie
// root and code hash. Only accounts dirtied since the previous call are
// re-encoded; on a clean state this is a cached read.
func (s *StateDB) Root() types.Hash {
	s.flush()
	return s.accTrie.RootHash()
}

// flush folds every dirty account into the persistent tries. Accounts
// whose encoding is unchanged (a snapshot/revert round trip) skip the
// trie update, preserving the cached root.
func (s *StateDB) flush() {
	if len(s.dirty) == 0 {
		return
	}
	for addr := range s.dirty {
		acc, ok := s.accounts[addr]
		if !ok {
			// A reverted creation: the struct went with the revert.
			s.accTrie.Delete(addr[:])
			continue
		}
		enc := acc.encode()
		if bytes.Equal(enc, acc.enc) {
			continue
		}
		acc.enc = enc
		if acc.trieKey == (types.Hash{}) {
			acc.trieKey = types.Keccak(addr[:])
		}
		s.accTrie.UpdateHashed(acc.trieKey, enc) // handed over: never written again
	}
	clear(s.dirty)
}

// encode flushes the account's overlay into its storage trie, seals it,
// and returns the account's RLP encoding.
func (acc *account) encode() []byte {
	if len(acc.storage) > 0 {
		if acc.storageTrie == nil {
			acc.storageTrie = trie.NewSecure()
		}
		var word [1 + len(types.Word{})]byte // the trie copies what it stores
		for k, v := range acc.storage {
			if v.IsZero() {
				acc.storageTrie.Delete(k[:])
			} else {
				acc.storageTrie.Update(k[:], rlp.AppendString(word[:0], minimalBytes(v)))
			}
		}
		acc.seal()
	}
	storageRoot := trie.EmptyRoot
	if acc.storageTrie != nil {
		storageRoot = acc.storageTrie.RootHash()
	}
	if acc.codeHash == nil {
		h := types.Keccak(acc.code)
		acc.codeHash = &h
	}
	// Two integers of at most 9 bytes and two 33-byte hash strings.
	var fields [2*9 + 2*33]byte
	payload := rlp.AppendUint(fields[:0], acc.nonce)
	payload = rlp.AppendUint(payload, acc.balance)
	payload = rlp.AppendString(payload, storageRoot[:])
	payload = rlp.AppendString(payload, acc.codeHash[:])
	return rlp.AppendList(make([]byte, 0, rlp.ListSize(len(payload))), payload)
}

// minimalBytes strips leading zeroes (canonical storage value encoding).
func minimalBytes(w types.Word) []byte {
	i := 0
	for i < len(w) && w[i] == 0 {
		i++
	}
	return w[i:]
}

// Accounts returns the addresses present in the state (testing aid).
func (s *StateDB) Accounts() []types.Address {
	out := make([]types.Address, 0, len(s.accounts))
	for addr := range s.accounts {
		out = append(out, addr)
	}
	return out
}
