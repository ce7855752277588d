package statedb

import (
	"reflect"
	"testing"

	"sereth/internal/types"
)

// journalOf returns the whole array behind s's journal, used entries and
// spare capacity alike.
func journalOf(s *StateDB) []journalEntry { return s.journal[:cap(s.journal)] }

// requireZero fails unless every entry of the array is the zero entry:
// what a pooled array must be, or the body that adopts it could revert
// into another block's history and the idle array would pin its accounts.
func requireZero(t *testing.T, what string, arr []journalEntry) {
	t.Helper()
	for i := range arr {
		if !reflect.ValueOf(arr[i]).IsZero() {
			t.Fatalf("%s: entry %d of %d is %+v", what, i, len(arr), arr[i])
		}
	}
}

// churn journals every kind of entry: an account creation, a nonce, a
// balance, code and a slot.
func churn(s *StateDB, n byte) {
	a := addrN(n)
	s.SetNonce(a, uint64(n))
	s.AddBalance(a, 100)
	s.SetCode(a, []byte{n, n})
	s.SetState(a, slotN(uint64(n)), wordN(uint64(n)+1))
}

// TestPooledScratchCarriesNothing walks the journal array through every
// way it reaches the pool and checks what the next body finds there:
// reserved on an empty journal and discarded; outgrown by append after
// the reservation; reserved again on a journal that already holds entries
// (the parallel processor's serial lane). A journal that append alone
// grew was never the pool's and is left to the collector. Whatever array
// the next reservation adopts — the pool may hand back any of them, or
// none — is all zero, starts at snapshot 0 and has nothing to revert.
func TestPooledScratchCarriesNothing(t *testing.T) {
	adopt := func(what string) {
		t.Helper()
		next := New()
		next.ReserveJournal(4)
		requireZero(t, what+": adopted array", journalOf(next))
		if next.Snapshot() != 0 {
			t.Fatalf("%s: the next body starts at snapshot %d", what, next.Snapshot())
		}
		next.RevertToSnapshot(0) // nothing to undo
		if len(next.Accounts()) != 0 {
			t.Fatalf("%s: reverting to 0 on a fresh state left accounts %v", what, next.Accounts())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: snapshot 1 of the previous body was accepted", what)
				}
			}()
			next.RevertToSnapshot(1)
		}()
		next.DiscardJournal()
	}

	// Reserved, used, partly reverted, discarded.
	s := New()
	s.ReserveJournal(64)
	churn(s, 1)
	snap := s.Snapshot()
	churn(s, 2)
	s.RevertToSnapshot(snap)
	arr := journalOf(s)
	s.DiscardJournal()
	if s.journal != nil || s.pooled != nil {
		t.Fatalf("a discarded state keeps journal (cap %d) or handle %v", cap(s.journal), s.pooled)
	}
	requireZero(t, "reserved", arr)
	adopt("reserved")

	// Outgrown: the array append moved to is the one that is pooled.
	s = New()
	s.ReserveJournal(2)
	small := journalOf(s)
	for n := byte(1); len(s.journal) <= len(small); n++ { // small may be a pooled array larger than asked
		churn(s, n)
	}
	grown := journalOf(s)
	if &grown[0] == &small[0] {
		t.Fatal("the journal did not outgrow its reservation")
	}
	s.DiscardJournal()
	requireZero(t, "outgrown", grown)
	adopt("outgrown")

	// Reserved while non-empty: the entries survive the move, and no
	// pooled array is adopted over them.
	s = New()
	churn(s, 1)
	held := s.Snapshot()
	s.ReserveJournal(256)
	if s.Snapshot() != held || cap(s.journal)-len(s.journal) < 256 {
		t.Fatalf("reserving on %d entries left %d with room for %d", held, s.Snapshot(), cap(s.journal)-len(s.journal))
	}
	churn(s, 2)
	s.RevertToSnapshot(held)
	if s.GetNonce(addrN(2)) != 0 || s.GetNonce(addrN(1)) != 1 {
		t.Fatal("the revert across a reservation did not restore the state")
	}
	s.RevertToSnapshot(0)
	if len(s.Accounts()) != 0 {
		t.Fatalf("reverting to 0 left accounts %v", s.Accounts())
	}
	s.DiscardJournal()
	adopt("reserved non-empty")

	// Never reserved: not pooled, and so never cleared for the pool.
	s = New()
	churn(s, 3)
	foreign := journalOf(s)
	s.DiscardJournal()
	if s.journal != nil {
		t.Fatal("a discarded state keeps its journal")
	}
	if reflect.ValueOf(foreign[0]).IsZero() {
		t.Fatal("a foreign array was cleared: it must not have been pooled")
	}
	adopt("foreign")
}

// TestCopySharesNoAccountStruct: a copy shares the source's sealed
// accounts, and its first write to each takes a private copy — storage
// trie handle included — that neither the source nor a sibling copy
// sees. Every account of one copy is mutated — nonce, balance, an old
// slot, a new slot, and storage on accounts that never had a trie — then
// both are flushed: the source and an untouched sibling keep their roots
// and every nonce, balance and slot.
func TestCopySharesNoAccountStruct(t *testing.T) {
	const accounts = 40
	src := New()
	for n := byte(1); n <= accounts; n++ {
		src.SetNonce(addrN(n), uint64(n))
		src.AddBalance(addrN(n), 1000+uint64(n))
		if n%4 == 0 { // every fourth account is a contract with storage
			src.SetCode(addrN(n), []byte{n})
			src.SetState(addrN(n), slotN(1), wordN(uint64(n)))
			src.SetState(addrN(n), slotN(2), wordN(uint64(n)*2))
		}
	}
	src.DiscardJournal()
	root := src.Root()
	for n := byte(1); n <= accounts; n++ {
		if acc := src.held(addrN(n)); (acc.storageTrie != nil) != (n%4 == 0) {
			t.Fatalf("account %d: storage trie %v", n, acc.storageTrie)
		}
	}
	sibling, cp := src.Copy(), src.Copy()

	for n := byte(1); n <= accounts; n++ {
		a := addrN(n)
		cp.SetNonce(a, 7000+uint64(n))
		cp.AddBalance(a, 5)
		cp.SetState(a, slotN(1), wordN(9000+uint64(n)))
		cp.SetState(a, slotN(3), wordN(1))
	}
	if cp.Root() == root {
		t.Fatal("the mutated copy kept the source's root")
	}
	for name, s := range map[string]*StateDB{"source": src, "sibling": sibling} {
		if got := s.Root(); got != root {
			t.Fatalf("%s: root %x after the copy was mutated, %x before", name, got, root)
		}
		for n := byte(1); n <= accounts; n++ {
			a := addrN(n)
			var one, two types.Word
			if n%4 == 0 {
				one, two = wordN(uint64(n)), wordN(uint64(n)*2)
			}
			if s.GetNonce(a) != uint64(n) || s.GetBalance(a) != 1000+uint64(n) ||
				s.GetState(a, slotN(1)) != one || s.GetState(a, slotN(2)) != two || !s.GetState(a, slotN(3)).IsZero() {
				t.Fatalf("%s: account %d reads nonce %d balance %d slots %x %x %x", name, n, s.GetNonce(a), s.GetBalance(a),
					s.GetState(a, slotN(1)), s.GetState(a, slotN(2)), s.GetState(a, slotN(3)))
			}
		}
	}
	// A from-scratch state with the copy's contents agrees with its root:
	// the accounts copied on first write flush like any other.
	flat := New()
	for n := byte(1); n <= accounts; n++ {
		a := addrN(n)
		flat.SetNonce(a, 7000+uint64(n))
		flat.AddBalance(a, 1000+uint64(n)+5)
		if n%4 == 0 {
			flat.SetCode(a, []byte{n})
			flat.SetState(a, slotN(2), wordN(uint64(n)*2))
		}
		flat.SetState(a, slotN(1), wordN(9000+uint64(n)))
		flat.SetState(a, slotN(3), wordN(1))
	}
	if flat.Root() != cp.Root() {
		t.Fatalf("mutated copy root %x, the same contents from scratch %x", cp.Root(), flat.Root())
	}
}

// TestPooledSlotOverlayCarriesNothing: a flush hands an account's storage
// overlay back to the pool empty, so the next first write to a contract —
// in another state, on another account — finds none of the slots it held:
// its overlay holds the one slot written, the others read through its
// own trie, and its root is the root of the same writes on a state whose
// overlay came fresh.
func TestPooledSlotOverlayCarriesNothing(t *testing.T) {
	first := New()
	for i := range 40 {
		first.SetState(spreadAddr(1), slotN(uint64(i)), wordN(uint64(i)+1))
	}
	first.Root()
	if m := slotMaps.Get().(map[types.Word]types.Word); len(m) != 0 {
		t.Fatalf("the pool handed back an overlay holding %d slots", len(m))
	} else {
		slotMaps.Put(m)
	}

	build := func() *StateDB {
		s := New()
		s.SetState(spreadAddr(2), slotN(7), wordN(9))
		s.SetState(spreadAddr(2), slotN(8), wordN(10))
		return s
	}
	next := build()
	if got := len(next.accounts[spreadAddr(2)].storage); got != 2 {
		t.Fatalf("the next contract's overlay holds %d slots, want 2", got)
	}
	for i := range 40 {
		if want := map[int]types.Word{7: wordN(9), 8: wordN(10)}[i]; next.GetState(spreadAddr(2), slotN(uint64(i))) != want {
			t.Fatalf("slot %d of the next contract reads %x, want %x", i, next.GetState(spreadAddr(2), slotN(uint64(i))), want)
		}
	}
	want := build()
	want.accounts[spreadAddr(2)].storage = map[types.Word]types.Word{slotN(7): wordN(9), slotN(8): wordN(10)}
	if next.Root() != want.Root() {
		t.Fatal("a pooled overlay flushes to another root than a fresh one")
	}
}
