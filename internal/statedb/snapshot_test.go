package statedb

import (
	"bytes"
	"maps"
	"testing"

	"sereth/internal/store"
	"sereth/internal/types"
)

// exported walks s and returns the records visited, which a snapshot of
// s consists of.
func exported(t *testing.T, s *StateDB) map[string][]byte {
	t.Helper()
	recs := map[string][]byte{}
	if err := s.Walk(nil, func(k, v []byte) { recs[string(k)] = bytes.Clone(v) }); err != nil {
		t.Fatalf("Walk: %v", err)
	}
	return recs
}

// storeOf is a store holding exactly recs.
func storeOf(t *testing.T, recs map[string][]byte) *store.MemStore {
	t.Helper()
	kv := store.NewMem()
	for k, v := range recs {
		if err := kv.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
	}
	return kv
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := populated(t)
	// A zero-value account and a cleared slot exercise the edge records.
	s.getOrCreate(addrN(0xaa))
	s.SetState(addrN(0xcc), slotN(3), types.ZeroWord)
	want := s.Root()

	recs := exported(t, s)
	kv := storeOf(t, recs)
	if err := VerifyState(kv, want); err != nil {
		t.Fatalf("exported records do not verify: %v", err)
	}
	re := OpenAt(kv, want)
	if re.Root() != want {
		t.Fatalf("imported root %x != %x", re.Root(), want)
	}
	if !re.Exists(addrN(0xaa)) {
		t.Fatal("zero-value account lost")
	}
	if got := re.GetState(addrN(0xcc), slotN(3)); !got.IsZero() {
		t.Fatalf("cleared slot resurrected: %x", got)
	}
	if got := re.GetState(addrN(0xcc), slotN(4)); got != wordN(4*7+1) {
		t.Fatalf("slot 4 = %x", got)
	}
	if !bytes.Equal(re.GetCode(addrN(0xcc)), s.GetCode(addrN(0xcc))) {
		t.Fatal("code blob lost")
	}

	// Determinism: the export of the import is the same record set.
	if !maps.EqualFunc(exported(t, re), recs, bytes.Equal) {
		t.Fatal("re-export of an imported state differs from the export it came from")
	}

	// The walk set no stored flag: s still commits in full, as a twin
	// nobody walked does.
	twin := populated(t)
	twin.getOrCreate(addrN(0xaa))
	twin.SetState(addrN(0xcc), slotN(3), types.ZeroWord)
	_, wantN, _ := twin.CommitTo(store.NewMem())
	full := store.NewMem()
	if _, n, err := s.CommitTo(full); err != nil || n != wantN {
		t.Fatalf("a walked state committed %d records (%v), an unwalked twin %d", n, err, wantN)
	}
	if err := VerifyState(full, want); err != nil {
		t.Fatalf("commit after a walk left holes: %v", err)
	}
}

// TestWalkVisitsWhatCommitToWrites is trie.TestWalkVisitsWhatCommitWrites
// for a whole state: CommitTo into an empty store writes exactly the
// records Walk visits. Every account leaf (about 70 bytes) and every slot
// holding a full 32-byte word (a Sereth mark) reaches the size a node is
// referenced by hash at, but nothing references a leaf's value on its
// own, so no copy of one is written.
func TestWalkVisitsWhatCommitToWrites(t *testing.T) {
	s := New()
	for i := uint64(1); i <= 200; i++ {
		a := types.Address{18: byte(i >> 8), 19: byte(i)}
		s.SetNonce(a, i)
		s.AddBalance(a, i*1000)
	}
	contract := addrN(0xcc)
	s.SetCode(contract, []byte{0x60, 0x00, 0x60, 0x00, 0x55, 0x00})
	for i := uint64(0); i < 50; i++ {
		s.SetState(contract, slotN(i), types.Keccak(slotN(i).Hash().Bytes()).Word())
	}
	s.DiscardJournal()

	kv := store.NewMem()
	_, n, err := s.CommitTo(kv)
	if err != nil {
		t.Fatal(err)
	}
	recs := exported(t, s)
	if n != len(recs) || kv.Len() != len(recs) {
		t.Fatalf("CommitTo wrote %d records (%d keys), Walk visits %d", n, kv.Len(), len(recs))
	}
	for k, v := range recs {
		if got, ok := kv.Get([]byte(k)); !ok || !bytes.Equal(got, v) {
			t.Fatalf("Walk visits %x, which CommitTo did not write", k)
		}
	}
}

// TestSnapshotOfPartialState is the positive form of what used to be a
// refusal: a state opened lazily from a store — none of it in memory,
// and then part of it, after writes — exports exactly what its
// fully-materialized twin exports, and never the nodes its store holds
// for older roots.
func TestSnapshotOfPartialState(t *testing.T) {
	kv := store.NewMem()
	s := populated(t)
	root, _, err := s.CommitTo(kv)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := exported(t, OpenAt(kv, root)), exported(t, populated(t)); !maps.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("lazy state exported %d records, its materialized twin %d", len(got), len(want))
	}

	write := func(st *StateDB) {
		st.SetState(addrN(0xcc), slotN(1), wordN(99))
		st.SetState(addrN(0xcc), slotN(2), types.ZeroWord)
		st.SetNonce(addrN(7), 70)
		st.SetCode(addrN(0xdd), []byte{0x60, 0x01, 0x00})
	}
	lazy, twin := OpenAt(kv, root), populated(t)
	write(lazy)
	write(twin)
	got, want := exported(t, lazy), exported(t, twin)
	if !maps.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("written lazy state exported %d records, its twin %d", len(got), len(want))
	}
	// Flushed but never committed: the new nodes exist in memory only,
	// the rest in kv only. Committed, kv holds two roots' worth; the
	// export is still one root's.
	if _, _, err := lazy.CommitTo(kv); err != nil {
		t.Fatal(err)
	}
	if got := exported(t, lazy); !maps.EqualFunc(got, want, bytes.Equal) || kv.Len() <= len(want) {
		t.Fatalf("after commit: exported %d records, want %d, store holds %d", len(got), len(want), kv.Len())
	}
	if err := VerifyState(storeOf(t, got), lazy.Root()); err != nil {
		t.Fatalf("export of a lazy state does not verify: %v", err)
	}
}

// TestSnapshotTruncatedStream: a snapshot cut short — any one of its
// records missing — never verifies, and neither does one with a record
// altered; the intact set does.
func TestSnapshotTruncatedStream(t *testing.T) {
	s := populated(t)
	root := s.Root()
	recs := exported(t, s)
	if err := VerifyState(storeOf(t, recs), root); err != nil {
		t.Fatal(err)
	}
	for k, v := range recs {
		delete(recs, k)
		if err := VerifyState(storeOf(t, recs), root); err == nil {
			t.Fatalf("state verified without record %x", k)
		}
		bad := bytes.Clone(v)
		bad[len(bad)/2] ^= 0x01
		recs[k] = bad
		if err := VerifyState(storeOf(t, recs), root); err == nil {
			t.Fatalf("state verified with record %x altered", k)
		}
		recs[k] = v
	}
}
