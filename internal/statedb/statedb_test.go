package statedb

import (
	"maps"
	"math/rand"
	"runtime"
	"runtime/debug"
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

// TestCopyIsolated: a copy and its source never see each other's
// writes. Then random storage on a contract, flushed in a random number
// of blocks; a copy; then one side writes and flushes, and the other must
// still read every slot it read before, and then the other way round:
// a flush writes into no trie node the other side shares.
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

	rng := rand.New(rand.NewSource(11))
	c := addr(3)
	const keys = 48
	write := func(s *StateDB, n int) {
		for range n {
			v := wordN(uint64(rng.Intn(6))) // zero one time in six: clears
			s.SetState(c, slotN(uint64(rng.Intn(keys))), v)
		}
		s.Root()
	}
	for trial := range 400 {
		s := New()
		for range 1 + rng.Intn(4) {
			write(s, 1+rng.Intn(30))
		}
		cp := s.Copy()
		sides := [2]*StateDB{s, cp}
		if rng.Intn(2) == 0 {
			sides[0], sides[1] = cp, s
		}
		for turn := range 2 {
			writer, reader := sides[turn], sides[1-turn]
			want := slotsOf(reader, c, keys)
			write(writer, 1+rng.Intn(40))
			if got := slotsOf(reader, c, keys); !maps.Equal(got, want) {
				t.Fatalf("trial %d, turn %d: the other side's slots changed under a flush", trial, turn)
			}
			if got, want := writer.Root(), rootFromScratch(writer, keys); got != want {
				t.Fatalf("trial %d, turn %d: the flushing side's root %x, from scratch %x", trial, turn, got, want)
			}
		}
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

// slotsOf reads the slots of addr that s holds over a test's key domain,
// slotN(0) up to slotN(keys-1), through GetState, into one flat map of
// the non-zero ones: a test reference, like rootFromScratch below.
func slotsOf(s *StateDB, addr types.Address, keys uint64) map[types.Word]types.Word {
	flat := make(map[types.Word]types.Word)
	for i := uint64(0); i < keys; i++ {
		if v := s.GetState(addr, slotN(i)); !v.IsZero() {
			flat[slotN(i)] = v
		}
	}
	return flat
}

// held returns the account s keeps in memory for addr — the overlay's,
// else the newest generation's — or nil: a lazy state's unresolved
// accounts are not held.
func (s *StateDB) held(addr types.Address) *account {
	if acc, ok := s.accounts[addr]; ok {
		return acc
	}
	acc, _ := s.sealed(&addr)
	return acc
}

// rootFromScratch recomputes the commitment the pre-incremental way:
// fresh account and storage tries rebuilt from the full state, its slots
// read back through GetState over the test's key domain, the first keys
// slots. It is the bit-identity reference for the persistent-trie flush
// path.
func rootFromScratch(s *StateDB, keys uint64) types.Hash {
	st := trie.NewSecure()
	for _, a := range s.Accounts() {
		acc := s.held(a)
		storageTrie := trie.NewSecure()
		for k, v := range slotsOf(s, a, keys) {
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
		got, want := s.Root(), rootFromScratch(s, 6)
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

// TestFlushEncodesAccountsIntoOneSlab: a flush of dirty accounts
// allocates two objects whatever their number — the header and the array
// of the generation it seals — because each account encodes into its own
// buffer, in the slab the body reserved (it was one encoding
// buffer per flush, and one per account before that; the generation is
// what Copy's account slab and map were). A later flush leaves the
// encodings the trie was handed alone: it writes only accounts the
// overlay took since. Its trie writes leaves the previous flush made and
// nothing hashed since, so the trie overwrites them in place and
// allocates nothing itself.
func TestFlushEncodesAccountsIntoOneSlab(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const accounts = 200
	s := New()
	for i := 0; i < accounts; i++ {
		s.AddBalance(addr(byte(i)), 1)
	}
	s.flush()
	first := s.held(addr(3)).enc
	kept := string(first)
	s.ReserveJournal(BodyJournalCapacity(accounts))
	for i := 0; i < accounts; i++ {
		s.AddBalance(addr(byte(i)), uint64(i%2)) // half of them unchanged
	}
	s.DiscardJournal()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.flush()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 2 {
		t.Errorf("a flush of %d dirty accounts allocated %d objects, want 2 (the generation)", accounts, n)
	}
	if string(first) != kept {
		t.Error("a later flush wrote into an encoding the trie keeps")
	}
	for i := 0; i < accounts; i++ {
		if got := s.GetBalance(addr(byte(i))); got != 1+uint64(i%2) {
			t.Fatalf("account %d: balance %d", i, got)
		}
	}
	fresh := New()
	for i := 0; i < accounts; i++ {
		fresh.AddBalance(addr(byte(i)), 1+uint64(i%2))
	}
	if s.Root() != fresh.Root() {
		t.Error("the slab-encoded state differs from one built afresh")
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
