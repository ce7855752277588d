// SpecView: the per-transaction speculative state of the optimistic
// parallel block processor (Block-STM style). A view wraps a flushed,
// read-only base StateDB and gives one transaction a private overlay to
// execute against: every base read (account existence, nonce, balance,
// code, storage word) is recorded as it happens, and every write lands
// in the overlay without touching the base. After speculation the
// recorded read set is validated against the state the lower-indexed
// transactions actually committed — if every read still returns the
// same value, the speculative execution is bit-equivalent to a serial
// re-execution (the interpreter is a deterministic function of its
// reads) and MergeInto applies the overlay's surviving writes to the
// canonical state without replaying the transaction.
//
// The mutation surface mirrors StateDB exactly — including the journal
// rhythm (Snapshot / RevertToSnapshot / MutatedSince), so the chain's
// contract-activity no-op classification makes the same call on either
// state — and the shadow-model test in specview_test.go pins the two
// implementations together over randomized operation sequences.
package statedb

import (
	"bytes"
	"fmt"

	"sereth/internal/types"
)

// readKind tags one recorded base observation.
type readKind uint8

const (
	// readExists: getOrCreate consulted base existence (the branch that
	// decides whether an account-create is journaled).
	readExists readKind = iota + 1
	readNonce
	readBalance
	readCode
	readStorage
)

// readRecord is one observation of the base state made during
// speculation. Validation replays the observation against the committed
// state and demands the identical answer.
type readRecord struct {
	kind    readKind
	existed bool
	addr    types.Address
	key     types.Word
	u64     uint64
	word    types.Word
	// code is the observed code slice. Base code slices are immutable
	// (SetCode installs fresh copies), so holding the reference is safe
	// for the view's lifetime; validation compares content.
	code []byte
}

// specAccount is one account's overlay: each field carries its own
// "locally written" flag so reads fall through to the base until the
// transaction itself writes the field. created marks an account the
// base did not have when the view first mutated it — such an account is
// fully determined locally (all fields start at zero).
type specAccount struct {
	nonce      uint64
	balance    uint64
	nonceSet   bool
	balanceSet bool
	codeSet    bool
	created    bool
	code       []byte
	// storage holds locally written words; presence means written (a
	// stored zero word is an explicit clear, mirroring SetState).
	storage map[types.Word]types.Word
}

// specEntry is one flat undo record of the overlay journal — the same
// kind tags as the StateDB journal, restoring the overlay's per-field
// "locally set" flags instead of account structs.
type specEntry struct {
	kind    journalKind
	prevSet bool
	addr    types.Address
	acc     *specAccount
	key     types.Word
	prevU64 uint64
	// prevWord doubles as the previous local storage word (kindStorage).
	prevWord types.Word
	prevCode []byte
}

// SpecView is a read-recording speculative overlay over a flushed base
// state. Not safe for concurrent use; each speculated transaction gets
// its own view (the base may be shared read-only across views).
type SpecView struct {
	base     *StateDB
	accounts map[types.Address]*specAccount
	reads    []readRecord
	journal  []specEntry
}

// NewSpecView returns an empty view over base (which must be flushed
// and must not be mutated while any view reads it). A nil base is
// allowed for pooled construction; Reset before use.
func NewSpecView(base *StateDB) *SpecView {
	return &SpecView{
		base:     base,
		accounts: make(map[types.Address]*specAccount),
	}
}

// Reset rebinds a (possibly pooled) view to a new base, dropping every
// overlay entry, recorded read and journal entry while keeping the
// allocated capacity. Reset(nil) parks the view without pinning the old
// base or its code slices.
func (v *SpecView) Reset(base *StateDB) {
	v.base = base
	if v.accounts == nil {
		v.accounts = make(map[types.Address]*specAccount)
	}
	clear(v.accounts)
	for i := range v.reads {
		v.reads[i] = readRecord{}
	}
	v.reads = v.reads[:0]
	clear(v.journal)
	v.journal = v.journal[:0]
}

// getOrCreate mirrors StateDB.getOrCreate for the overlay. Creating the
// overlay entry is pure bookkeeping when the base already has the
// account; when it does not, the sequential path would install a fresh
// account and journal the creation — so base existence is a recorded
// read and the creation a journaled, revertible effect here too.
func (v *SpecView) getOrCreate(addr types.Address) *specAccount {
	if sa, ok := v.accounts[addr]; ok {
		return sa
	}
	sa := &specAccount{storage: make(map[types.Word]types.Word)}
	exists := v.base.Exists(addr)
	v.reads = append(v.reads, readRecord{kind: readExists, addr: addr, existed: exists})
	if !exists {
		sa.created = true
		v.journal = append(v.journal, specEntry{kind: kindAccountCreate, addr: addr, acc: sa})
	}
	v.accounts[addr] = sa
	return sa
}

// Exists reports whether the account is visible to this view.
func (v *SpecView) Exists(addr types.Address) bool {
	if sa, ok := v.accounts[addr]; ok && sa.created {
		return true
	}
	exists := v.base.Exists(addr)
	v.reads = append(v.reads, readRecord{kind: readExists, addr: addr, existed: exists})
	return exists
}

// GetNonce returns the account nonce (0 for absent accounts).
func (v *SpecView) GetNonce(addr types.Address) uint64 {
	if sa, ok := v.accounts[addr]; ok {
		if sa.nonceSet {
			return sa.nonce
		}
		if sa.created {
			return 0
		}
	}
	n := v.base.GetNonce(addr)
	v.reads = append(v.reads, readRecord{kind: readNonce, addr: addr, u64: n})
	return n
}

// SetNonce sets the account nonce in the overlay.
func (v *SpecView) SetNonce(addr types.Address, nonce uint64) {
	sa := v.getOrCreate(addr)
	v.journal = append(v.journal, specEntry{
		kind: kindNonce, acc: sa, addr: addr, prevU64: sa.nonce, prevSet: sa.nonceSet,
	})
	sa.nonce, sa.nonceSet = nonce, true
}

// balanceOf resolves the balance visible to the view for an account
// that already has an overlay entry, recording the base read when the
// field is not locally determined.
func (v *SpecView) balanceOf(sa *specAccount, addr types.Address) uint64 {
	if sa.balanceSet {
		return sa.balance
	}
	if sa.created {
		return 0
	}
	b := v.base.GetBalance(addr)
	v.reads = append(v.reads, readRecord{kind: readBalance, addr: addr, u64: b})
	return b
}

// GetBalance returns the account balance (0 for absent accounts).
func (v *SpecView) GetBalance(addr types.Address) uint64 {
	if sa, ok := v.accounts[addr]; ok {
		return v.balanceOf(sa, addr)
	}
	b := v.base.GetBalance(addr)
	v.reads = append(v.reads, readRecord{kind: readBalance, addr: addr, u64: b})
	return b
}

// AddBalance credits the account in the overlay.
func (v *SpecView) AddBalance(addr types.Address, amount uint64) {
	sa := v.getOrCreate(addr)
	prev := v.balanceOf(sa, addr)
	v.journal = append(v.journal, specEntry{
		kind: kindBalance, acc: sa, addr: addr, prevU64: sa.balance, prevSet: sa.balanceSet,
	})
	sa.balance, sa.balanceSet = prev+amount, true
}

// SubBalance debits the account in the overlay. It reports false (and
// writes nothing) when funds are insufficient — the insufficiency
// itself rests on recorded reads, so validation re-checks it.
func (v *SpecView) SubBalance(addr types.Address, amount uint64) bool {
	sa := v.getOrCreate(addr)
	bal := v.balanceOf(sa, addr)
	if bal < amount {
		return false
	}
	v.journal = append(v.journal, specEntry{
		kind: kindBalance, acc: sa, addr: addr, prevU64: sa.balance, prevSet: sa.balanceSet,
	})
	sa.balance, sa.balanceSet = bal-amount, true
	return true
}

// GetCode returns the contract code visible to the view. Callers must
// not mutate the returned slice.
func (v *SpecView) GetCode(addr types.Address) []byte {
	if sa, ok := v.accounts[addr]; ok {
		if sa.codeSet {
			return sa.code
		}
		if sa.created {
			return nil
		}
	}
	code := v.base.GetCode(addr)
	v.reads = append(v.reads, readRecord{kind: readCode, addr: addr, code: code})
	return code
}

// SetCode installs contract code in the overlay.
func (v *SpecView) SetCode(addr types.Address, code []byte) {
	sa := v.getOrCreate(addr)
	v.journal = append(v.journal, specEntry{
		kind: kindCode, acc: sa, addr: addr, prevCode: sa.code, prevSet: sa.codeSet,
	})
	sa.code = append([]byte{}, code...)
	sa.codeSet = true
}

// GetState reads a storage word through the overlay (zero when unset).
func (v *SpecView) GetState(addr types.Address, key types.Word) types.Word {
	if sa, ok := v.accounts[addr]; ok {
		if val, written := sa.storage[key]; written {
			return val
		}
		if sa.created {
			return types.ZeroWord
		}
	}
	w := v.base.GetState(addr, key)
	v.reads = append(v.reads, readRecord{kind: readStorage, addr: addr, key: key, word: w})
	return w
}

// SetState writes a storage word into the overlay. A zero word is
// stored as an explicit clear, mirroring StateDB.SetState.
func (v *SpecView) SetState(addr types.Address, key, value types.Word) {
	sa := v.getOrCreate(addr)
	prev, written := sa.storage[key]
	v.journal = append(v.journal, specEntry{
		kind: kindStorage, acc: sa, addr: addr, key: key, prevWord: prev, prevSet: written,
	})
	sa.storage[key] = value
}

// Snapshot returns an identifier for the current overlay journal
// position — the same contract as StateDB.Snapshot.
func (v *SpecView) Snapshot() int { return len(v.journal) }

// RevertToSnapshot undoes every overlay mutation made after the
// snapshot was taken, restoring the per-field fall-through-to-base
// flags. Recorded reads are deliberately kept: a read that steered
// execution into the reverted branch still constrains validity.
func (v *SpecView) RevertToSnapshot(id int) {
	if id < 0 || id > len(v.journal) {
		panic(fmt.Sprintf("statedb: invalid spec snapshot id %d (journal length %d)", id, len(v.journal)))
	}
	for i := len(v.journal) - 1; i >= id; i-- {
		v.journal[i].revert(v)
		v.journal[i] = specEntry{}
	}
	v.journal = v.journal[:id]
}

// revert undoes the entry against the view.
func (e *specEntry) revert(v *SpecView) {
	switch e.kind {
	case kindAccountCreate:
		delete(v.accounts, e.addr)
	case kindNonce:
		e.acc.nonce, e.acc.nonceSet = e.prevU64, e.prevSet
	case kindBalance:
		e.acc.balance, e.acc.balanceSet = e.prevU64, e.prevSet
	case kindCode:
		e.acc.code, e.acc.codeSet = e.prevCode, e.prevSet
	case kindStorage:
		if e.prevSet {
			e.acc.storage[e.key] = e.prevWord
		} else {
			delete(e.acc.storage, e.key)
		}
	}
}

// MutatedSince reports whether any state mutation was journaled after
// the given snapshot — the same classification StateDB.MutatedSince
// makes: every current spec-entry kind records a state effect, and a
// future bookkeeping-only kind must opt out here AND there.
func (v *SpecView) MutatedSince(snap int) bool {
	if snap < 0 || snap > len(v.journal) {
		panic(fmt.Sprintf("statedb: invalid spec snapshot id %d (journal length %d)", snap, len(v.journal)))
	}
	return len(v.journal) > snap
}

// Validate replays every recorded base read against committed and
// reports whether all of them still return the observed value. When
// they do, the speculative execution is equivalent to running the
// transaction serially on committed — the interpreter and the
// transaction-application rules are deterministic functions of exactly
// these observations.
func (v *SpecView) Validate(committed *StateDB) bool {
	for i := range v.reads {
		r := &v.reads[i]
		switch r.kind {
		case readExists:
			if committed.Exists(r.addr) != r.existed {
				return false
			}
		case readNonce:
			if committed.GetNonce(r.addr) != r.u64 {
				return false
			}
		case readBalance:
			if committed.GetBalance(r.addr) != r.u64 {
				return false
			}
		case readCode:
			if !bytes.Equal(committed.GetCode(r.addr), r.code) {
				return false
			}
		case readStorage:
			if committed.GetState(r.addr, r.key) != r.word {
				return false
			}
		}
	}
	return true
}

// Reads returns the number of recorded base observations (testing and
// stats aid).
func (v *SpecView) Reads() int { return len(v.reads) }

// IsReadOnly reports whether the view recorded no overlay writes at
// all — every account entry is a read-only shell. For such a view
// MergeInto is a no-op and the commit loop can skip it outright.
func (v *SpecView) IsReadOnly() bool {
	for _, sa := range v.accounts {
		if sa.created || sa.nonceSet || sa.balanceSet || sa.codeSet || len(sa.storage) > 0 {
			return false
		}
	}
	return true
}

// NonceOnlyWrite reports whether the view's entire write footprint is
// one account's nonce update — the shape of every read-only contract
// call routed through a transaction (the unavoidable sender nonce
// bump). A first-time sender's account creation rides along: MergeNonce
// installs the account exactly like the full merge would, and the
// creation's recorded existence read is covered by Validate. When true,
// the commit loop merges the single nonce via StateDB.MergeNonce
// instead of walking the whole overlay.
func (v *SpecView) NonceOnlyWrite() (types.Address, uint64, bool) {
	var addr types.Address
	var nonce uint64
	found := false
	for a, sa := range v.accounts {
		if !sa.created && !sa.nonceSet && !sa.balanceSet && !sa.codeSet && len(sa.storage) == 0 {
			continue // read-only shell
		}
		if sa.balanceSet || sa.codeSet || len(sa.storage) > 0 || found {
			return types.Address{}, 0, false
		}
		addr, nonce, found = a, sa.nonce, true
	}
	return addr, nonce, found
}

// MergeNonce is the nonce-only fast path of MergeInto: journal-free
// like the full merge, marking the same dirtiness.
func (s *StateDB) MergeNonce(addr types.Address, nonce uint64) {
	acc := s.mergeAccount(addr)
	acc.nonce = nonce
	s.touch(addr)
}

// MergeInto applies the view's surviving overlay writes to dst without
// replaying the transaction — the commit half of the optimistic
// scheduler. It must only be called after Validate(dst) succeeded: the
// overlay's absolute values (balances, nonces) were computed from reads
// that validation just proved current. Writes go in journal-free (a
// committed transaction is never reverted; dst's journal keeps serving
// the serial re-run lane untouched) but mark dirtiness exactly like the
// journaled mutators, so incremental Root sees every change.
func (v *SpecView) MergeInto(dst *StateDB) {
	for addr, sa := range v.accounts {
		if !sa.created && !sa.nonceSet && !sa.balanceSet && !sa.codeSet && len(sa.storage) == 0 {
			continue // read-only overlay shell
		}
		acc := dst.mergeAccount(addr)
		if sa.nonceSet {
			acc.nonce = sa.nonce
		}
		if sa.balanceSet {
			acc.balance = sa.balance
		}
		if sa.codeSet {
			acc.code = sa.code // SetCode installed a private copy
			acc.codeHash, acc.codeStored = nil, false
		}
		for k, val := range sa.storage {
			acc.setSlot(k, val) // zero clears, here as there
		}
		dst.touch(addr)
	}
}

// mergeAccount is getOrCreate without the undo journaling: the merge
// path installs committed (never-reverted) writes, so only the dirty
// mark matters.
func (s *StateDB) mergeAccount(addr types.Address) *account {
	if acc, ok := s.accounts[addr]; ok {
		return acc
	}
	acc := &account{}
	s.accounts[addr] = acc
	s.touch(addr)
	return acc
}
