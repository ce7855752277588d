package statedb

// Randomized churn test pinning the typed flat journal bit-identical to
// the closure journal it replaced: a shadow state with the PR-4
// closure-based undo log runs the same operation stream, and after every
// revert (and at the end) the two worlds must agree on all account
// state, on the Merkle root, and on the contract-activity classification
// (MutatedSince vs the closure journal's position compare) — including
// the PR-3 value-carrying no-op case where a transfer precedes contract
// execution that touches nothing.

import (
	"bytes"
	"math/rand"
	"testing"

	"sereth/internal/types"
)

// shadowState is the reference: plain maps plus a closure journal,
// mirroring the pre-refactor statedb semantics operation for operation.
type shadowState struct {
	nonce   map[types.Address]uint64
	balance map[types.Address]uint64
	code    map[types.Address][]byte
	storage map[types.Address]map[types.Word]types.Word
	exists  map[types.Address]bool
	journal []func()
}

func newShadow() *shadowState {
	return &shadowState{
		nonce:   map[types.Address]uint64{},
		balance: map[types.Address]uint64{},
		code:    map[types.Address][]byte{},
		storage: map[types.Address]map[types.Word]types.Word{},
		exists:  map[types.Address]bool{},
	}
}

func (sh *shadowState) create(a types.Address) {
	if sh.exists[a] {
		return
	}
	sh.exists[a] = true
	sh.journal = append(sh.journal, func() {
		delete(sh.exists, a)
		delete(sh.nonce, a)
		delete(sh.balance, a)
		delete(sh.code, a)
		delete(sh.storage, a)
	})
}

func (sh *shadowState) setNonce(a types.Address, n uint64) {
	sh.create(a)
	prev := sh.nonce[a]
	sh.nonce[a] = n
	sh.journal = append(sh.journal, func() { sh.nonce[a] = prev })
}

func (sh *shadowState) addBalance(a types.Address, v uint64) {
	sh.create(a)
	prev := sh.balance[a]
	sh.balance[a] = prev + v
	sh.journal = append(sh.journal, func() { sh.balance[a] = prev })
}

func (sh *shadowState) subBalance(a types.Address, v uint64) bool {
	sh.create(a)
	prev := sh.balance[a]
	if prev < v {
		return false
	}
	sh.balance[a] = prev - v
	sh.journal = append(sh.journal, func() { sh.balance[a] = prev })
	return true
}

func (sh *shadowState) setCode(a types.Address, code []byte) {
	sh.create(a)
	prev, had := sh.code[a]
	sh.code[a] = append([]byte{}, code...)
	sh.journal = append(sh.journal, func() {
		if had {
			sh.code[a] = prev
		} else {
			delete(sh.code, a)
		}
	})
}

func (sh *shadowState) setState(a types.Address, k, v types.Word) {
	sh.create(a)
	if sh.storage[a] == nil {
		sh.storage[a] = map[types.Word]types.Word{}
	}
	prev, existed := sh.storage[a][k]
	if v.IsZero() {
		delete(sh.storage[a], k)
	} else {
		sh.storage[a][k] = v
	}
	sh.journal = append(sh.journal, func() {
		if existed {
			sh.storage[a][k] = prev
		} else {
			delete(sh.storage[a], k)
		}
	})
}

func (sh *shadowState) snapshot() int { return len(sh.journal) }

func (sh *shadowState) revert(id int) {
	for i := len(sh.journal) - 1; i >= id; i-- {
		sh.journal[i]()
	}
	sh.journal = sh.journal[:id]
}

// agree checks the real state against the shadow on every observable.
func agree(t *testing.T, step int, s *StateDB, sh *shadowState) {
	t.Helper()
	for a, ok := range sh.exists {
		if !ok {
			continue
		}
		if !s.Exists(a) {
			t.Fatalf("step %d: %x missing from statedb", step, a)
		}
		if got, want := s.GetNonce(a), sh.nonce[a]; got != want {
			t.Fatalf("step %d: nonce(%x) = %d, shadow %d", step, a, got, want)
		}
		if got, want := s.GetBalance(a), sh.balance[a]; got != want {
			t.Fatalf("step %d: balance(%x) = %d, shadow %d", step, a, got, want)
		}
		if got, want := s.GetCode(a), sh.code[a]; !bytes.Equal(got, want) {
			t.Fatalf("step %d: code(%x) = %x, shadow %x", step, a, got, want)
		}
		for k, want := range sh.storage[a] {
			if got := s.GetState(a, k); got != want {
				t.Fatalf("step %d: storage(%x,%x) = %x, shadow %x", step, a, k, got, want)
			}
		}
	}
	if got, want := len(s.Accounts()), len(sh.exists); got != want {
		t.Fatalf("step %d: %d accounts, shadow %d", step, got, want)
	}
}

// TestJournalChurnMatchesClosureShadow drives 1500 random operations —
// mutations, nested snapshot/revert cycles, journal discards — through
// the flat journal and the closure shadow in lockstep.
func TestJournalChurnMatchesClosureShadow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	sh := newShadow()
	addr := func() types.Address {
		var a types.Address
		a[0] = 0xab
		a[19] = byte(rng.Intn(10))
		return a
	}
	type snap struct{ real, shadow int }
	var snaps []snap
	for step := 0; step < 1500; step++ {
		switch rng.Intn(10) {
		case 0, 1:
			a, n := addr(), rng.Uint64()%1000
			s.SetNonce(a, n)
			sh.setNonce(a, n)
		case 2, 3:
			a, v := addr(), rng.Uint64()%500
			s.AddBalance(a, v)
			sh.addBalance(a, v)
		case 4:
			a, v := addr(), rng.Uint64()%700
			if got, want := s.SubBalance(a, v), sh.subBalance(a, v); got != want {
				t.Fatalf("step %d: SubBalance = %v, shadow %v", step, got, want)
			}
		case 5:
			a := addr()
			code := make([]byte, rng.Intn(8))
			rng.Read(code)
			s.SetCode(a, code)
			sh.setCode(a, code)
		case 6, 7:
			// Zero values exercise the slot-delete path.
			a := addr()
			k := types.WordFromUint64(uint64(rng.Intn(6)))
			v := types.WordFromUint64(rng.Uint64() % 3)
			s.SetState(a, k, v)
			sh.setState(a, k, v)
		case 8:
			snaps = append(snaps, snap{real: s.Snapshot(), shadow: sh.snapshot()})
			// A fresh snapshot must read as no activity — the PR-3 no-op
			// classification's base case.
			if s.MutatedSince(snaps[len(snaps)-1].real) {
				t.Fatalf("step %d: MutatedSince(now) = true", step)
			}
		case 9:
			if len(snaps) == 0 {
				continue
			}
			i := rng.Intn(len(snaps))
			sp := snaps[i]
			// The activity classification must match the closure
			// journal's position compare before the revert consumes it.
			if got, want := s.MutatedSince(sp.real), sh.snapshot() != sp.shadow; got != want {
				t.Fatalf("step %d: MutatedSince = %v, closure position compare %v", step, got, want)
			}
			s.RevertToSnapshot(sp.real)
			sh.revert(sp.shadow)
			snaps = snaps[:i] // deeper snapshots are now invalid
			agree(t, step, s, sh)
		}
		if step%250 == 249 {
			// The incremental root must agree with a from-scratch rebuild
			// (rootFromScratch is the statedb_test reference), and the
			// state with the shadow.
			if got, want := s.Root(), rootFromScratch(s, 6); got != want {
				t.Fatalf("step %d: incremental root %x, from-scratch %x", step, got, want)
			}
			agree(t, step, s, sh)
		}
		if step%400 == 399 {
			s.DiscardJournal()
			sh.journal = nil
			snaps = snaps[:0]
		}
	}
	agree(t, 1500, s, sh)
}

// TestMutatedSinceValueCarryingNoop replays the PR-3 misclassification
// shape at the journal level: a value transfer journals activity, the
// "contract execution" after it journals nothing, and the classifier
// anchored at the post-transfer snapshot must read no activity while
// one anchored at the pre-transfer snapshot must read activity.
func TestMutatedSinceValueCarryingNoop(t *testing.T) {
	s := New()
	from := types.Address{19: 0x01}
	to := types.Address{19: 0x02}
	s.AddBalance(from, 100)
	s.DiscardJournal()

	pre := s.Snapshot()
	if !s.SubBalance(from, 40) {
		t.Fatal("SubBalance failed")
	}
	s.AddBalance(to, 40)
	post := s.Snapshot()

	if !s.MutatedSince(pre) {
		t.Error("transfer not classified as activity from the pre-transfer snapshot")
	}
	if s.MutatedSince(post) {
		t.Error("no-op execution classified as activity from the post-transfer snapshot")
	}
	// The contract doing real work flips the post-transfer classifier.
	s.SetState(to, types.WordFromUint64(1), types.WordFromUint64(2))
	if !s.MutatedSince(post) {
		t.Error("storage write not classified as activity")
	}
	s.RevertToSnapshot(pre)
	if s.GetBalance(from) != 100 || s.GetBalance(to) != 0 {
		t.Errorf("revert incomplete: from=%d to=%d", s.GetBalance(from), s.GetBalance(to))
	}
}

// TestMutatedSincePanicsOnBogusSnapshot mirrors RevertToSnapshot's
// invalid-id contract.
func TestMutatedSincePanicsOnBogusSnapshot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range snapshot id")
		}
	}()
	New().MutatedSince(5)
}
