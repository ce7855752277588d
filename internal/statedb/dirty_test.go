package statedb

import (
	"runtime/debug"
	"testing"

	"sereth/internal/types"
)

// TestReservedTouchesAllocateNothing: ReserveJournal sizes the dirty
// list with the journal, so once a body has reserved, its mutations of
// accounts the state holds — nonces, debits, credits, reverts — allocate
// nothing, however many accounts they dirty (a set of dirty addresses
// allocated and grew a map per body). The flush that follows still
// commits every one of them.
func TestReservedTouchesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const accounts, runs = 200, 10
	base := New()
	for i := range accounts {
		base.AddBalance(addr(byte(i)), 1000)
	}
	base.Root()
	bodies := make([]*StateDB, runs+1) // AllocsPerRun runs once more to warm up
	for i := range bodies {
		bodies[i] = base.Copy()
		bodies[i].ReserveJournal(BodyJournalCapacity(accounts))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		s := bodies[next]
		next++
		for i := range accounts {
			from, to := addr(byte(i)), addr(byte((i+1)%accounts))
			snap := s.Snapshot()
			s.SetNonce(from, 1)
			s.SubBalance(from, 10)
			s.AddBalance(to, 10)
			if i%3 == 0 {
				s.RevertToSnapshot(snap)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("a reserved body's touches of %d accounts allocated %v objects, want 0", accounts, allocs)
	}
	for _, s := range bodies {
		if got, want := s.Root(), rootFromScratch(s, 0); got != want {
			t.Fatalf("root %x after the touches, from scratch %x", got, want)
		}
	}
}

// TestRevertedCreationAcrossRoot: an account a body creates, a Root in
// the middle of the body flushes and a revert then removes is listed for
// the next flush again and deleted from the trie — also one whose
// creation is its only journal entry (a debit it could not pay), which
// only the creation's own undo can list; created again after
// that — and once more created, reverted and created within one flush —
// it is committed once. Copies taken before and after the revert commit
// on their own. Every root is the from-scratch root of the same state.
func TestRevertedCreationAcrossRoot(t *testing.T) {
	x, y, z, old := addr(7), addr(8), addr(9), addr(1)
	check := func(what string, s *StateDB) types.Hash {
		t.Helper()
		got, want := s.Root(), rootFromScratch(s, 2)
		if got != want {
			t.Fatalf("%s: root %x, from scratch %x", what, got, want)
		}
		return got
	}
	base := New()
	base.AddBalance(old, 5)
	baseRoot := check("the base", base)

	s := base.Copy()
	s.ReserveJournal(BodyJournalCapacity(4))
	snap := s.Snapshot()
	s.AddBalance(x, 10)
	s.SetState(x, slotN(1), wordN(2))
	s.AddBalance(y, 3)
	if s.SubBalance(z, 1) { // creates z and journals nothing else for it
		t.Fatal("an empty account paid")
	}
	s.AddBalance(old, 1)
	created := check("the creations, mid-body", s)
	before := s.Copy() // holds x, y and z
	s.SetNonce(x, 4)   // x dirty again after the flush
	s.RevertToSnapshot(snap)
	between := s.Copy() // flushes s: x, y and z deleted
	if s.Exists(x) || s.Exists(y) || s.Exists(z) {
		t.Fatal("the revert left a created account")
	}
	if got := check("after the revert", s); got != baseRoot {
		t.Fatalf("after the revert the root is %x, the base's %x", got, baseRoot)
	}
	snap = s.Snapshot()
	s.AddBalance(x, 1)
	s.RevertToSnapshot(snap)
	s.AddBalance(x, 2) // listed twice now: created, reverted, created
	s.SetState(x, slotN(1), wordN(9))
	s.DiscardJournal()
	recreated := check("the re-creation", s)

	fresh := New()
	fresh.AddBalance(old, 5)
	fresh.AddBalance(x, 2)
	fresh.SetState(x, slotN(1), wordN(9))
	if recreated != fresh.Root() {
		t.Fatal("the re-created state's root is not that of the state built afresh")
	}
	if got := check("the copy before the revert", before); got != created {
		t.Fatalf("the copy before the revert moved: root %x, want %x", got, created)
	}
	if got := check("the copy after the revert", between); got != baseRoot {
		t.Fatalf("the copy after the revert has root %x, want the base's %x", got, baseRoot)
	}
	between.AddBalance(y, 1) // each copy commits its own creation
	before.SetNonce(y, 1)
	check("the later copy, written", between)
	check("the earlier copy, written", before)
}
