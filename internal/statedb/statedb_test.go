package statedb

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"sereth/internal/rlp"
	"sereth/internal/trie"
	"sereth/internal/types"
)

func addr(b byte) types.Address {
	var a types.Address
	a[19] = b
	return a
}

func TestEmptyStateRoot(t *testing.T) {
	if New().Root() != trie.EmptyRoot {
		t.Error("empty state root != empty trie root")
	}
}

func TestNonceBalance(t *testing.T) {
	s := New()
	a := addr(1)
	if s.GetNonce(a) != 0 || s.GetBalance(a) != 0 {
		t.Error("absent account has nonzero defaults")
	}
	s.SetNonce(a, 5)
	s.AddBalance(a, 100)
	if s.GetNonce(a) != 5 || s.GetBalance(a) != 100 {
		t.Error("set/get mismatch")
	}
	if !s.SubBalance(a, 40) || s.GetBalance(a) != 60 {
		t.Error("SubBalance failed")
	}
	if s.SubBalance(a, 1000) {
		t.Error("overdraft allowed")
	}
	if s.GetBalance(a) != 60 {
		t.Error("failed SubBalance mutated balance")
	}
}

func TestStorage(t *testing.T) {
	s := New()
	a := addr(2)
	k := types.WordFromUint64(1)
	if !s.GetState(a, k).IsZero() {
		t.Error("unset slot nonzero")
	}
	v := types.WordFromUint64(42)
	s.SetState(a, k, v)
	if s.GetState(a, k) != v {
		t.Error("storage read-back failed")
	}
	s.SetState(a, k, types.ZeroWord)
	if !s.GetState(a, k).IsZero() {
		t.Error("zero write did not clear")
	}
}

func TestCode(t *testing.T) {
	s := New()
	a := addr(3)
	if s.GetCode(a) != nil {
		t.Error("absent code nonzero")
	}
	code := []byte{0x60, 0x00}
	s.SetCode(a, code)
	got := s.GetCode(a)
	if len(got) != 2 || got[0] != 0x60 {
		t.Error("code read-back failed")
	}
	code[0] = 0xff // caller mutation must not leak in
	if s.GetCode(a)[0] == 0xff {
		t.Error("SetCode did not copy")
	}
}

func TestSnapshotRevert(t *testing.T) {
	s := New()
	a := addr(4)
	s.SetNonce(a, 1)
	s.AddBalance(a, 50)
	s.SetState(a, types.WordFromUint64(0), types.WordFromUint64(7))
	rootBefore := s.Root()

	snap := s.Snapshot()
	s.SetNonce(a, 2)
	s.AddBalance(a, 50)
	s.SetState(a, types.WordFromUint64(0), types.WordFromUint64(9))
	s.SetState(a, types.WordFromUint64(1), types.WordFromUint64(1))
	s.SetCode(addr(5), []byte{1})
	s.RevertToSnapshot(snap)

	if s.GetNonce(a) != 1 || s.GetBalance(a) != 50 {
		t.Error("account fields not reverted")
	}
	if got, _ := s.GetState(a, types.WordFromUint64(0)).Uint64(); got != 7 {
		t.Errorf("storage not reverted: %d", got)
	}
	if !s.GetState(a, types.WordFromUint64(1)).IsZero() {
		t.Error("new slot not reverted")
	}
	if s.Exists(addr(5)) {
		t.Error("created account not reverted")
	}
	if s.Root() != rootBefore {
		t.Error("root differs after revert")
	}
}

func TestNestedSnapshots(t *testing.T) {
	s := New()
	a := addr(6)
	s.AddBalance(a, 10)
	s1 := s.Snapshot()
	s.AddBalance(a, 10)
	s2 := s.Snapshot()
	s.AddBalance(a, 10)
	s.RevertToSnapshot(s2)
	if s.GetBalance(a) != 20 {
		t.Errorf("inner revert: balance %d", s.GetBalance(a))
	}
	s.RevertToSnapshot(s1)
	if s.GetBalance(a) != 10 {
		t.Errorf("outer revert: balance %d", s.GetBalance(a))
	}
}

func TestRevertBogusSnapshotPanics(t *testing.T) {
	// A silently-ignored out-of-range snapshot id would mask journal
	// accounting bugs in the dirty-tracking flush path; it must panic.
	for _, id := range []int{-1, 999} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RevertToSnapshot(%d) did not panic", id)
				}
			}()
			s := New()
			s.AddBalance(addr(1), 5)
			s.RevertToSnapshot(id)
		}()
	}
}

func TestCopyIsolated(t *testing.T) {
	s := New()
	a := addr(7)
	s.AddBalance(a, 10)
	s.SetState(a, types.WordFromUint64(0), types.WordFromUint64(1))
	cp := s.Copy()
	cp.AddBalance(a, 5)
	cp.SetState(a, types.WordFromUint64(0), types.WordFromUint64(2))
	if s.GetBalance(a) != 10 {
		t.Error("copy shares balances")
	}
	if got, _ := s.GetState(a, types.WordFromUint64(0)).Uint64(); got != 1 {
		t.Error("copy shares storage")
	}
	if s.Root() == cp.Root() {
		t.Error("diverged states share a root")
	}
}

func TestRootDeterministicAcrossCopies(t *testing.T) {
	s := New()
	for i := byte(0); i < 20; i++ {
		s.SetNonce(addr(i), uint64(i))
		s.AddBalance(addr(i), uint64(i)*7)
		s.SetState(addr(i), types.WordFromUint64(uint64(i)), types.WordFromUint64(uint64(i)*3))
	}
	if s.Copy().Root() != s.Root() {
		t.Error("copy root differs")
	}
}

func TestRootSensitivity(t *testing.T) {
	base := func() *StateDB {
		s := New()
		s.SetNonce(addr(1), 1)
		s.SetState(addr(1), types.WordFromUint64(0), types.WordFromUint64(5))
		return s
	}
	root := base().Root()

	s := base()
	s.SetNonce(addr(1), 2)
	if s.Root() == root {
		t.Error("root insensitive to nonce")
	}
	s = base()
	s.SetState(addr(1), types.WordFromUint64(0), types.WordFromUint64(6))
	if s.Root() == root {
		t.Error("root insensitive to storage")
	}
	s = base()
	s.SetCode(addr(1), []byte{0x01})
	if s.Root() == root {
		t.Error("root insensitive to code")
	}
}

// Property: any sequence of mutations wrapped in snapshot+revert leaves
// the root unchanged.
func TestQuickRevertIsComplete(t *testing.T) {
	type mutation struct {
		Addr  uint8
		Kind  uint8
		Key   uint8
		Value uint64
	}
	f := func(setup, inner []mutation) bool {
		s := New()
		apply := func(m mutation) {
			a := addr(m.Addr % 8)
			switch m.Kind % 4 {
			case 0:
				s.SetNonce(a, m.Value)
			case 1:
				s.AddBalance(a, m.Value%1000)
			case 2:
				s.SetState(a, types.WordFromUint64(uint64(m.Key%4)), types.WordFromUint64(m.Value))
			case 3:
				s.SetCode(a, []byte{byte(m.Value)})
			}
		}
		for _, m := range setup {
			apply(m)
		}
		before := s.Root()
		snap := s.Snapshot()
		for _, m := range inner {
			apply(m)
		}
		s.RevertToSnapshot(snap)
		return s.Root() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// slots materializes the account's storage as one flat map — the
// generations oldest first, then the overlay, tombstones dropped. It
// costs the size of the storage: a test reference, like rootFromScratch
// below. Not meaningful on a lazy account, whose flushed slots live in
// the trie.
func (acc *account) slots() map[types.Word]types.Word {
	flat := make(map[types.Word]types.Word)
	acc.gens.collect(flat)
	maps.Copy(flat, acc.storage)
	maps.DeleteFunc(flat, cleared)
	return flat
}

func (g *storageGen) collect(into map[types.Word]types.Word) {
	if g == nil {
		return
	}
	g.below.collect(into)
	maps.Copy(into, g.slots)
}

// rootFromScratch recomputes the commitment the pre-incremental way:
// fresh account and storage tries rebuilt from the full state. It is the
// bit-identity reference for the persistent-trie flush path.
func rootFromScratch(s *StateDB) types.Hash {
	st := trie.NewSecure()
	for _, a := range s.Accounts() {
		acc := s.accounts[a]
		storageTrie := trie.NewSecure()
		for k, v := range acc.slots() {
			storageTrie.Update(k[:], rlp.Encode(rlp.String(minimalBytes(v))))
		}
		storageRoot := storageTrie.RootHash()
		codeHash := types.Keccak(acc.code)
		st.Update(a[:], rlp.Encode(rlp.List(
			rlp.Uint(acc.nonce),
			rlp.Uint(acc.balance),
			rlp.String(storageRoot[:]),
			rlp.String(codeHash[:]),
		)))
	}
	return st.RootHash()
}

// TestChurnRootMatchesFromScratch drives a long randomized interleaving
// of Set/delete/Revert/Copy/Root operations and asserts after every root
// computation that the incremental commitment is bit-identical to a
// from-scratch trie rebuild of the same logical state.
func TestChurnRootMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	states := []*StateDB{New()}
	var snaps []int // open snapshots on the last state

	check := func(step int, s *StateDB) {
		got, want := s.Root(), rootFromScratch(s)
		if got != want {
			t.Fatalf("step %d: incremental root %x != from-scratch %x", step, got, want)
		}
	}
	for step := 0; step < 1500; step++ {
		s := states[len(states)-1]
		a := addr(byte(rng.Intn(12)))
		switch op := rng.Intn(12); op {
		case 0, 1:
			s.SetNonce(a, uint64(rng.Intn(1000)))
		case 2, 3:
			s.AddBalance(a, uint64(rng.Intn(1000)))
		case 4:
			s.SubBalance(a, uint64(rng.Intn(1000)))
		case 5, 6:
			s.SetState(a, types.WordFromUint64(uint64(rng.Intn(6))), types.WordFromUint64(uint64(rng.Intn(50))))
		case 7:
			// Delete a slot (zero write clears).
			s.SetState(a, types.WordFromUint64(uint64(rng.Intn(6))), types.ZeroWord)
		case 8:
			s.SetCode(a, []byte{byte(rng.Intn(256)), byte(step)})
		case 9:
			snaps = append(snaps, s.Snapshot())
		case 10:
			if len(snaps) > 0 {
				i := rng.Intn(len(snaps))
				s.RevertToSnapshot(snaps[i])
				snaps = snaps[:i]
			}
		case 11:
			// Fork: keep mutating a structure-sharing copy; both sides
			// must commit independently from then on.
			s.DiscardJournal()
			snaps = nil
			states = append(states, s.Copy())
			if len(states) > 4 {
				states = states[len(states)-4:]
			}
		}
		if step%25 == 0 {
			check(step, s)
		}
	}
	for i, s := range states {
		check(-i, s)
	}
}

func BenchmarkSetState(b *testing.B) {
	s := New()
	a := addr(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SetState(a, types.WordFromUint64(uint64(i%64)), types.WordFromUint64(uint64(i)))
	}
}

func BenchmarkRoot100Accounts(b *testing.B) {
	s := New()
	for i := 0; i < 100; i++ {
		s.SetNonce(addr(byte(i)), uint64(i))
		s.SetState(addr(byte(i)), types.WordFromUint64(0), types.WordFromUint64(uint64(i)))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Root()
	}
}
