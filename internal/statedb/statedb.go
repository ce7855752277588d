// Package statedb implements the mutable world state backing the EVM:
// accounts with nonce/balance/code and per-contract storage words. All
// mutations are journaled so a failing transaction can be rolled back in
// place (the blockchain failure semantics of the paper: the transaction
// stays in the block but has no effect on state). Root computes the
// Merkle commitment over the full state via the secure trie.
//
// The commitment is incremental: every StateDB keeps a persistent
// account trie (plus one persistent storage trie per account) that is
// structure-shared across Copy, and lists the accounts dirtied since the
// last flush. Root re-encodes and re-hashes only the dirty paths —
// O(changes · log n) instead of rebuilding the full account and storage
// tries from scratch on every call. The dirty list is a flag on each
// account plus the addresses in first-touch order, in an array
// ReserveJournal sizes beside the journal; flush visits them in that
// order (a root does not depend on it) and deletes a listed address whose
// creation was reverted.
//
// An account's storage is a private overlay over its storage trie: the
// overlay holds every slot written since the last flush, and a read that
// misses it reads the trie, which flush brings up to date before it drops
// the overlay. The trie's hashed nodes are immutable and shared by every
// copy of the account, so the trie is the one home of flushed storage.
//
// Accounts are shared in generations. A state's accounts live in a chain
// of sealed generations (newest first) under a private write overlay. The
// first write to an account since the last flush copies its struct into
// the overlay — into a slab ReserveJournal sizes — and flush seals the
// overlay into a new generation. A generation is merged with the ones
// below it while they are within genMergeRatio of its size, so a chain
// stays logarithmic, and the merge writes into the overlay being sealed,
// never into the generations it absorbs. Copy shares the chain and starts
// an empty overlay, so copying a state costs one allocation whatever the
// number of its accounts and slots, and successive post states share
// every account and trie node the block between them did not write.
//
// Ownership: a StateDB writes only its overlays, its journal, its dirty
// list and its trie handles. A sealed generation, and every account
// struct it holds, is never written again — also not by a revert, which
// reaches its account through the overlay — so a flushed state (one Root
// has been called on and that was not mutated since) may be read and
// copied by any number of goroutines: Root, Copy and a slot read write
// nothing on it. The one exception is a stored mark, as on a trie node:
// Stored records on a sealed account that its code blob is in the store
// of the chain that committed it.
package statedb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sync"

	"sereth/internal/rlp"
	"sereth/internal/trie"
	"sereth/internal/types"
)

// StateDB is an in-memory journaled world state. Not safe for concurrent
// use; each consumer (miner, validator) works on its own Copy. A flushed
// StateDB (one that Root has been called on and not mutated since) may be
// shared read-only across goroutines — Copy flushes its source, so every
// trie node and account two copies share is hashed and sealed, and
// neither is written again (see the package comment and package trie).
type StateDB struct {
	// accounts is the private write overlay: every account written, or
	// resolved from the store for a write, since the last flush; a nil
	// value is a tombstone, hiding an account the generations hold. The
	// map of a pooled overlay, nil while the overlay is empty.
	accounts map[types.Address]*account
	overlay  *overlay
	// gens is the sealed accounts below the overlay, newest first, shared
	// with every copy. nil for an empty state and one opened with OpenAt
	// until its first flush.
	gens *accountGen
	// slab is the free accounts first writes copy into, and spare the
	// rest of what ReserveJournal reserved, taken as a second slab once
	// the first is used up.
	slab  []account
	spare int
	// committed is the height of the newest generation Stored found
	// committed: StageTo visits only the generations above it.
	committed uint32
	journal   []journalEntry
	// pooled is the journals-pool handle a reservation took; nil while
	// journal is an array append alone grew.
	pooled *[]journalEntry
	// dirty lists the accounts mutated since the last flush, in the order
	// of their first touch, each listed while its dirty flag is set; only
	// these are re-encoded into the account trie by Root. Journal undos
	// re-mark their account, so a revert leaves the flush correct: a
	// reverted creation stays listed and is deleted. dirtyPooled is the
	// pool handle a reservation took, as pooled is the journal's.
	dirty       []types.Address
	dirtyPooled *[]types.Address
	// accTrie is the persistent secure account trie. Its hashed nodes are
	// immutable (a mutation copies them; only nodes made since the last
	// flush are written in place), so Copy, which flushes, shares them
	// wholesale.
	accTrie trie.SecureTrie
	// db backs a state opened from a persisted root (OpenAt): accounts
	// absent from the overlay and the generations resolve through it on
	// demand, and the storage tries they name read their nodes through it.
	// nil for states built in memory, where they are complete.
	db Reader
}

type account struct {
	nonce   uint64
	balance uint64
	code    []byte
	// storage is the private write overlay: every slot written (or
	// restored by a journal revert) since the last flush, the zero word
	// meaning cleared. nil until the first write; flush folds it into the
	// storage trie and drops it, so a flushed account reads only its trie.
	storage map[types.Word]types.Word
	// storageTrie commits the storage and holds every flushed slot; it lags
	// the storage by the overlay until the next flush. nil, meaning
	// trie.EmptyRoot, until the account's first slot is flushed: a plain
	// account owns no trie. The handle is private per account copy, its
	// nodes are shared.
	storageTrie *trie.SecureTrie
	// enc is the account's RLP encoding as last flushed into the account
	// trie; flush skips the trie update when the encoding is unchanged
	// (e.g. after a snapshot/revert cycle). codeHash caches Keccak(code);
	// trieKey Keccak(address), the account trie's key, from the first flush.
	enc      []byte
	codeHash *types.Hash
	trieKey  types.Hash
	// encBuf holds the encoding the account's flush made, which enc then
	// names: the flush seals the account, so no later one writes it.
	encBuf [maxAccountEnc]byte
	// codeStored remembers that the code blob is in the store, as a trie
	// node does: set when the account is decoded from the store or its
	// blob written, cleared by whatever assigns code (a revert too: at
	// worst a redundant write), so no commit reads a blob to find it.
	codeStored bool
	// dirty says the owning state lists the account for its next flush.
	// False on every sealed account, so a first write copies it false.
	dirty bool
}

// accountGen is one sealed generation of accounts: the overlay one or
// more flushes sealed, over the older generations below it, sorted by
// address. A nil account is a tombstone hiding an older one; the oldest
// generation holds none. Immutable once linked into a state.
type accountGen struct {
	entries []genEntry
	below   *accountGen
	// height counts the seals along the state's line of copies; fresh is
	// the number of accounts the sealed overlay held, what the block
	// before a copy touched.
	height, fresh uint32
}

type genEntry struct {
	addr types.Address
	acc  *account
}

// find returns the account g holds for addr; ok is false when g holds
// none, and acc nil with ok true for a tombstone.
func (g *accountGen) find(addr *types.Address) (acc *account, ok bool) {
	lo, hi := 0, len(g.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch c := compareAddr(&g.entries[m].addr, addr); {
		case c == 0:
			return g.entries[m].acc, true
		case c < 0:
			lo = m + 1
		default:
			hi = m
		}
	}
	return nil, false
}

// byAddress orders generation entries by address.
func byAddress(a, b genEntry) int { return compareAddr(&a.addr, &b.addr) }

// compareAddr orders addresses as big-endian numbers, in three word
// compares: a read probes every generation of a chain, and a binary
// search over 256 entries runs ≈ 10 % faster this way than through
// bytes.Compare.
func compareAddr(a, b *types.Address) int {
	for _, off := range [...]int{0, 8} {
		x, y := binary.BigEndian.Uint64(a[off:]), binary.BigEndian.Uint64(b[off:])
		if x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	x, y := binary.BigEndian.Uint32(a[16:]), binary.BigEndian.Uint32(b[16:])
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// genMergeRatio keeps a chain of account generations logarithmic: a
// seal merges the generation below into the new one while it holds fewer
// than genMergeRatio times as many accounts, so every generation is at
// least that many times the size of the one above it, and an account is
// re-copied O(log size) times over its life.
const genMergeRatio = 2

// slot returns the account's current value of key (zero when unset): the
// overlay, then the storage trie.
func (acc *account) slot(key types.Word) types.Word {
	if v, ok := acc.storage[key]; ok {
		return v
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

// journalKind tags one flat journal entry. Every kind records a state
// effect; the chain's contract-activity classification inspects kinds
// via MutatedSince instead of counting opaque closures.
type journalKind uint8

// Journal entry kinds.
const (
	// kindAccountCreate: getOrCreate installed a fresh account where the
	// state held none.
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
	kind         journalKind
	addr         types.Address
	prevU64      uint64
	key          types.Word
	prevWord     types.Word
	prevCode     []byte
	prevCodeHash *types.Hash
}

// revert undoes the entry against s. It reaches the account through the
// overlay, never through the struct the mutation wrote: a Root since the
// mutation may have sealed that one.
func (e *journalEntry) revert(s *StateDB) {
	if e.kind == kindAccountCreate {
		s.remove(e.addr)
		return
	}
	acc := s.own(e.addr)
	s.touch(e.addr, acc)
	switch e.kind {
	case kindNonce:
		acc.nonce = e.prevU64
	case kindBalance:
		acc.balance = e.prevU64
	case kindCode:
		acc.code, acc.codeHash, acc.codeStored = e.prevCode, e.prevCodeHash, false
	case kindStorage:
		// Written, not deleted: a Root() since the mutation may have sealed
		// the overlay, and only a fresh overlay entry outranks that.
		acc.setSlot(e.key, e.prevWord)
	}
}

// New returns an empty state.
func New() *StateDB { return &StateDB{} }

// touch marks acc, the account at addr, dirty for the next flush.
func (s *StateDB) touch(addr types.Address, acc *account) {
	if !acc.dirty {
		acc.dirty = true
		s.dirty = append(s.dirty, addr)
	}
}

// overlay is a pooled overlay map and the most entries it has held: a
// cleared map keeps its buckets, so a body's overlay allocates nothing
// once one of its size has been pooled.
type overlay struct {
	m    map[types.Address]*account
	held int
}

var overlays = sync.Pool{New: func() any { return new(overlay) }}

// takeOverlay gives the state a pooled overlay map with room for n
// accounts.
func (s *StateDB) takeOverlay(n int) {
	o := overlays.Get().(*overlay)
	if o.m == nil || o.held < n {
		o.m, o.held = make(map[types.Address]*account, n), n
	}
	s.accounts, s.overlay = o.m, o
}

// install puts acc, or a tombstone for a nil acc, in the overlay at addr.
func (s *StateDB) install(addr types.Address, acc *account) {
	if s.accounts == nil {
		s.takeOverlay(0)
	}
	s.accounts[addr] = acc
}

// newAccount returns a zero account from the slab, or one allocated
// alone once the reservation is used up.
func (s *StateDB) newAccount() *account {
	if len(s.slab) == cap(s.slab) {
		if s.spare == 0 {
			return new(account)
		}
		s.slab, s.spare = make([]account, 0, s.spare), 0
	}
	s.slab = s.slab[:len(s.slab)+1]
	return &s.slab[len(s.slab)-1]
}

// sealed returns the account the generations hold for addr; ok is false
// when none holds it, and acc nil with ok true for a tombstone.
func (s *StateDB) sealed(addr *types.Address) (acc *account, ok bool) {
	for g := s.gens; g != nil; g = g.below {
		if acc, ok := g.find(addr); ok {
			return acc, true
		}
	}
	return nil, false
}

// own returns the overlay's account at addr, or nil when the state has
// none. An account only a generation or the store holds enters the
// overlay first: a sealed one as a copy from the slab, sharing all it
// points to but the storage-trie handle, which flush writes and so is
// copied too — the one allocation of a first write, made only for an
// account with storage; a resolved one as decoded, private already. Neither is journaled: each is
// content-equal to what it hides, so a revert that crosses this point
// leaves an accurate copy behind. (Journaling it as a creation would
// make flush read the reverted entry as a deletion and drop the
// account.)
func (s *StateDB) own(addr types.Address) *account {
	if acc, ok := s.accounts[addr]; ok {
		return acc
	}
	src, ok := s.sealed(&addr)
	if !ok {
		if src = s.resolveAccount(addr); src != nil {
			s.install(addr, src)
		}
		return src
	}
	if src == nil {
		return nil
	}
	acc := s.newAccount()
	*acc = *src
	if src.storageTrie != nil {
		handle := src.storageTrie.Copy()
		acc.storageTrie = &handle
	}
	s.install(addr, acc)
	return acc
}

// create installs a blank account at addr, dirty.
func (s *StateDB) create(addr types.Address) *account {
	acc := s.newAccount()
	s.install(addr, acc)
	s.touch(addr, acc)
	return acc
}

// remove undoes the creation of addr: the overlay drops the account, or
// holds a tombstone in its place when a Root since the creation sealed
// it. Either way addr stays listed, so flush deletes it from the trie.
func (s *StateDB) remove(addr types.Address) {
	if acc := s.accounts[addr]; acc == nil || !acc.dirty {
		s.dirty = append(s.dirty, addr)
	}
	if _, ok := s.sealed(&addr); ok {
		s.install(addr, nil)
	} else {
		delete(s.accounts, addr)
	}
}

func (s *StateDB) getOrCreate(addr types.Address) *account {
	if acc := s.own(addr); acc != nil {
		return acc
	}
	acc := s.create(addr)
	s.journal = append(s.journal, journalEntry{kind: kindAccountCreate, addr: addr})
	return acc
}

// get returns the account for addr in the merged view: the overlay, the
// generations newest first, then — on a state opened from a persisted
// root — the account trie, whose decoded account is returned
// transiently (NOT installed) so concurrent read-only callers sharing
// this state never race. Mutators go through getOrCreate, which does
// install it — mutation contexts are single-threaded by the StateDB
// contract.
func (s *StateDB) get(addr types.Address) (*account, bool) {
	acc, ok := s.accounts[addr]
	if !ok {
		acc, ok = s.sealed(&addr)
	}
	if ok {
		return acc, acc != nil
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
	s.touch(addr, acc)
	s.journal = append(s.journal, journalEntry{
		kind: kindNonce, addr: addr, prevU64: prev,
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
	s.touch(addr, acc)
	s.journal = append(s.journal, journalEntry{
		kind: kindBalance, addr: addr, prevU64: prev,
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
	s.touch(addr, acc)
	s.journal = append(s.journal, journalEntry{
		kind: kindBalance, addr: addr, prevU64: prev,
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
	s.touch(addr, acc)
	s.journal = append(s.journal, journalEntry{
		kind: kindCode, addr: addr, prevCode: prev, prevCodeHash: prevHash,
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
	s.touch(addr, acc)
	s.journal = append(s.journal, journalEntry{
		kind: kindStorage, addr: addr, key: key, prevWord: prev,
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

// journals and dirtyLists recycle undo arrays and dirty lists between
// bodies; every element of a pooled array is zero.
var (
	journals   = sync.Pool{New: func() any { return new([]journalEntry) }}
	dirtyLists = sync.Pool{New: func() any { return new([]types.Address) }}
)

// ReserveJournal pre-sizes the undo log for at least n more entries, the
// dirty list for as many touches (every first touch of an account
// journals an entry), and the accounts first writes copy for a first
// write per JournalEntriesPerTx entries: a transaction's sender, with the
// recipient most transactions of a block share in the slack. Block
// processors call it once per body so neither pays a growth copy during
// the replay, and a first write to a plain account allocates nothing.
// The accounts come in two slabs: the first holds one more than the block
// before touched (its sealed overlay's size), which a block like it
// fills, and the rest of the reservation is taken only if the first runs
// out — a block that writes few accounts does not hold one per
// transaction. An empty journal or
// list adopts a pooled array when one is large enough; DiscardJournal
// gives the journal's back, the flush the list's; the overlay map is
// pooled too, sized for the reservation. The slabs are not pooled: the
// accounts in them outlive the body in the generations that seal them.
func (s *StateDB) ReserveJournal(n int) {
	reserve(&s.journal, &s.pooled, &journals, n)
	reserve(&s.dirty, &s.dirtyPooled, &dirtyLists, n)
	accounts := n/JournalEntriesPerTx + 1
	if cap(s.slab)-len(s.slab)+s.spare < accounts {
		first := accounts
		if s.gens != nil {
			first = min(accounts, int(s.gens.fresh)+1)
		}
		s.slab, s.spare = make([]account, 0, first), accounts-first
	}
	if s.accounts == nil {
		s.takeOverlay(accounts)
	}
}

// reserve makes room in *list for n more elements. An empty list adopts
// pool's array when it is large enough, keeping the pool's handle in
// *handle; a list that must grow otherwise is copied into a new array.
func reserve[T any](list *[]T, handle **[]T, pool *sync.Pool, n int) {
	if cap(*list)-len(*list) >= n {
		return
	}
	if len(*list) == 0 {
		if *handle == nil {
			*handle = pool.Get().(*[]T)
		}
		if cap(**handle) >= n {
			*list = (**handle)[:0]
			return
		}
	}
	grown := make([]T, len(*list), len(*list)+n)
	copy(grown, *list)
	*list = grown
}

// recycle drops *list. An array reserve took from pool (or the one that
// outgrew it) goes back with its used elements cleared: idle, it pins
// nothing.
func recycle[T any](list *[]T, handle **[]T, pool *sync.Pool) {
	if *handle != nil {
		clear(*list)
		**handle = (*list)[:0]
		pool.Put(*handle)
		*handle = nil
	}
	*list = nil
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
	recycle(&s.journal, &s.pooled, &journals)
}

// Copy returns an independent state with an empty journal and overlay,
// at one allocation whatever the size of the state: everything it holds
// — the generations and their accounts, the nodes of the account and
// storage tries, cached encodings, code slices — is immutable and
// shared. Copy flushes the source first, so the shared structures are
// fully hashed and sealed and never written by either side afterwards;
// on an already flushed source (a post state other goroutines read) it
// writes nothing at all.
func (s *StateDB) Copy() *StateDB {
	s.Root()
	return &StateDB{gens: s.gens, committed: s.committed, accTrie: s.accTrie.Copy(), db: s.db}
}

// Root computes the Merkle commitment over the entire state: a secure
// trie of RLP-encoded accounts, each committing to its own storage trie
// root and code hash. Only accounts dirtied since the previous call are
// re-encoded; on a clean state this is a cached read.
func (s *StateDB) Root() types.Hash {
	s.flush()
	return s.accTrie.RootHash()
}

// flush folds every dirty account into the persistent tries, in the
// order they were first touched, hands the dirty list back and seals the
// overlay. Each account encodes into its own buffer, which the account
// trie is handed and nobody writes again: a dirty account is one the
// overlay took since the last seal, and enc still names an older
// account's bytes. Accounts whose encoding is unchanged (a snapshot/revert
// round trip) skip the trie update, preserving the cached root. On a
// flushed state it writes nothing.
func (s *StateDB) flush() {
	if len(s.dirty) > 0 {
		for _, addr := range s.dirty {
			acc := s.accounts[addr]
			if acc == nil {
				// A reverted creation: the revert dropped the account.
				s.accTrie.Delete(addr[:])
				continue
			}
			if !acc.dirty {
				continue // listed twice: created, reverted, created again
			}
			acc.dirty = false
			enc := acc.appendEncoding(acc.encBuf[:0])
			if bytes.Equal(enc, acc.enc) {
				continue
			}
			acc.enc = enc[:len(enc):len(enc)]
			if acc.trieKey == (types.Hash{}) {
				acc.trieKey = types.Keccak(addr[:])
			}
			s.accTrie.UpdateHashed(acc.trieKey, enc) // handed over: never written again
		}
		recycle(&s.dirty, &s.dirtyPooled, &dirtyLists)
	}
	if len(s.accounts) > 0 {
		s.seal()
	}
}

// seal links the overlay in as the newest generation, sorted, merged with
// the generations below it while they are within genMergeRatio of its
// size; tombstones end where nothing older is left to hide. The merge
// writes only the new generation's array: the ones it absorbs stay as
// they are for the states that share them. The emptied overlay map goes
// back to the pool.
func (s *StateDB) seal() {
	n := len(s.accounts)
	below := s.gens
	for below != nil && len(below.entries) < genMergeRatio*n {
		n += len(below.entries)
		below = below.below
	}
	entries := make([]genEntry, 0, n)
	for addr, acc := range s.accounts {
		entries = append(entries, genEntry{addr, acc})
	}
	slices.SortFunc(entries, byAddress)
	for g := s.gens; g != below; g = g.below {
		entries = mergeOlder(entries, g.entries)
	}
	if below == nil {
		entries = slices.DeleteFunc(entries, func(e genEntry) bool { return e.acc == nil })
	}
	g := &accountGen{entries: entries, below: below, height: 1, fresh: uint32(len(s.accounts))}
	if s.gens != nil {
		g.height = s.gens.height + 1
	}
	s.gens = g
	s.overlay.held = max(s.overlay.held, len(s.accounts))
	clear(s.accounts)
	overlays.Put(s.overlay)
	s.accounts, s.overlay = nil, nil
}

// mergeOlder merges the sorted entries of an older generation into the
// sorted newer ones, which win on an address both hold. newer must have
// the capacity for both; the merge runs from the back, so it writes each
// element once and reads none it has overwritten.
func mergeOlder(newer, older []genEntry) []genEntry {
	i, j := len(newer)-1, len(older)-1
	out := newer[:len(newer)+len(older)]
	w := len(out)
	for j >= 0 {
		w--
		c := -1
		if i >= 0 {
			c = byAddress(newer[i], older[j])
		}
		if c < 0 {
			out[w] = older[j]
			j--
			continue
		}
		out[w] = newer[i]
		i--
		if c == 0 {
			j-- // shadowed
		}
	}
	// What is left of newer is in place; one slot per shadowed entry
	// separates it from the merged tail.
	if gap := w - (i + 1); gap > 0 {
		copy(out[i+1:], out[w:])
		out = out[:len(out)-gap]
	}
	return out
}

// maxAccountEnc bounds an account's encoding: a two-byte list header
// over two integers of at most 9 bytes and two 33-byte hash strings.
const maxAccountEnc = 2 + 2*9 + 2*33

// appendEncoding flushes the account's overlay into its storage trie,
// drops it, and appends the account's RLP encoding to out. The overlay's
// values are encoded into one slab, and each is handed to the trie as a
// capacity-capped slice of it that nobody writes again.
func (acc *account) appendEncoding(out []byte) []byte {
	if len(acc.storage) > 0 {
		if acc.storageTrie == nil {
			acc.storageTrie = trie.NewSecure()
		}
		slab := make([]byte, 0, len(acc.storage)*(1+len(types.Word{})))
		for k, v := range acc.storage {
			if v.IsZero() {
				acc.storageTrie.Delete(k[:])
				continue
			}
			start := len(slab)
			slab = rlp.AppendString(slab, minimalBytes(v))
			acc.storageTrie.UpdateHashed(types.Keccak(k[:]), slab[start:len(slab):len(slab)])
		}
		acc.storage = nil // the trie answers for these slots now
	}
	storageRoot := trie.EmptyRoot
	if acc.storageTrie != nil {
		storageRoot = acc.storageTrie.RootHash()
	}
	if acc.codeHash == nil {
		if len(acc.code) == 0 {
			acc.codeHash = &EmptyCodeHash // shared: never written through
		} else {
			h := types.Keccak(acc.code)
			acc.codeHash = &h
		}
	}
	var fields [maxAccountEnc - 2]byte
	payload := rlp.AppendUint(fields[:0], acc.nonce)
	payload = rlp.AppendUint(payload, acc.balance)
	payload = rlp.AppendString(payload, storageRoot[:])
	payload = rlp.AppendString(payload, acc.codeHash[:])
	return rlp.AppendList(out, payload)
}

// minimalBytes strips leading zeroes (canonical storage value encoding).
func minimalBytes(w types.Word) []byte {
	i := 0
	for i < len(w) && w[i] == 0 {
		i++
	}
	return w[i:]
}

// Accounts returns the addresses present in the state (testing aid): the
// merged view of the overlay and the generations, newest first, a
// tombstone hiding what is below it. On a state opened with OpenAt it
// lists only the accounts resolved so far.
func (s *StateDB) Accounts() []types.Address {
	seen := maps.Clone(s.accounts)
	if seen == nil {
		seen = make(map[types.Address]*account)
	}
	for g := s.gens; g != nil; g = g.below {
		for _, e := range g.entries {
			if _, ok := seen[e.addr]; !ok {
				seen[e.addr] = e.acc
			}
		}
	}
	out := make([]types.Address, 0, len(seen))
	for addr, acc := range seen {
		if acc != nil {
			out = append(out, addr)
		}
	}
	return out
}
