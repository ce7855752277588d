package statedb

import (
	"bytes"
	"maps"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"sereth/internal/rlp"
	"sereth/internal/store"
	"sereth/internal/trie"
	"sereth/internal/types"
)

// The tests in this file pin the shared contract storage: the private
// overlay over the storage trie must be indistinguishable from one flat
// map per state, for every state of a tree of copies, while the copies
// share every trie node they did not write.

// churnAddrs are the contracts the storage model writes; they exist in
// every state of the tree, so account creation stays out of the model.
var churnAddrs = []types.Address{addrN(0xc1), addrN(0xc2), addrN(0xc3)}

const churnKeys = 400

// modelState is one live state of the tree next to its flat shadow:
// flat holds exactly the non-zero slots, undo the shadow journal. copies
// counts the Copy calls between the state and the root of its lineage
// (a fresh state or a reopening).
type modelState struct {
	s      *StateDB
	flat   map[types.Address]map[types.Word]types.Word
	undo   []modelUndo
	snaps  []modelSnap
	copies int
}

type modelUndo struct {
	addr types.Address
	key  types.Word
	prev types.Word
}

type modelSnap struct{ real, shadow int }

func (m *modelState) set(a types.Address, k, v types.Word) {
	m.s.SetState(a, k, v)
	m.undo = append(m.undo, modelUndo{a, k, m.flat[a][k]})
	m.put(a, k, v)
}

func (m *modelState) put(a types.Address, k, v types.Word) {
	if v.IsZero() {
		delete(m.flat[a], k)
	} else {
		m.flat[a][k] = v
	}
}

func (m *modelState) revert(i int) {
	sp := m.snaps[i]
	m.s.RevertToSnapshot(sp.real)
	for j := len(m.undo) - 1; j >= sp.shadow; j-- {
		u := m.undo[j]
		m.put(u.addr, u.key, u.prev)
	}
	m.undo, m.snaps = m.undo[:sp.shadow], m.snaps[:i]
}

// newModel returns an empty state holding the churn contracts.
func newModel() *modelState {
	m := &modelState{s: New(), flat: make(map[types.Address]map[types.Word]types.Word)}
	for _, a := range churnAddrs {
		m.s.SetNonce(a, 1)
		m.flat[a] = make(map[types.Word]types.Word)
	}
	m.s.DiscardJournal()
	return m
}

// fork returns a model of s holding a private copy of the shadow, s
// being a Copy of m's state, one lineage deeper.
func (m *modelState) fork(s *StateDB) *modelState {
	cp := &modelState{s: s, flat: make(map[types.Address]map[types.Word]types.Word), copies: m.copies + 1}
	for a, slots := range m.flat {
		cp.flat[a] = maps.Clone(slots)
	}
	return cp
}

// flatTwin builds the state the shadow describes in one go: every slot
// written once, in one flush.
func flatTwin(flat map[types.Address]map[types.Word]types.Word) *StateDB {
	s := New()
	for _, a := range churnAddrs {
		s.SetNonce(a, 1)
		for k, v := range flat[a] {
			s.SetState(a, k, v)
		}
	}
	s.DiscardJournal()
	return s
}

// check compares every slot and the root of m with its shadow, and
// checks that a flush leaves no overlay behind.
func (m *modelState) check(t *testing.T, step int) {
	t.Helper()
	read := func(when string) {
		for _, a := range churnAddrs {
			for i := uint64(0); i < churnKeys; i++ {
				k := slotN(i)
				if got, want := m.s.GetState(a, k), m.flat[a][k]; got != want {
					t.Fatalf("step %d (%s): %x slot %d = %x, shadow %x", step, when, a[19], i, got, want)
				}
			}
		}
	}
	read("before flush")
	if got, want := m.s.Root(), flatTwin(m.flat).Root(); got != want {
		t.Fatalf("step %d: root %x, flat twin %x", step, got, want)
	}
	read("after flush")
	if got, want := m.s.Root(), rootFromScratch(m.s, churnKeys); m.s.db == nil && got != want {
		t.Fatalf("step %d: root %x, from scratch %x", step, got, want)
	}
	for _, a := range churnAddrs {
		if acc := m.s.held(a); acc != nil && acc.storage != nil {
			t.Fatalf("step %d: %x keeps an overlay of %d slots after flush", step, a[19], len(acc.storage))
		}
	}
}

// TestStorageChurnModel drives thousands of random writes, clears,
// snapshots, reverts (also across a Root or a Copy taken in between,
// which seal the overlay under the journal), roots, copies of copies
// and lazy reopenings over a tree of live states, each checked against
// a flat shadow map of its own. Every state is re-checked after its
// descendants and ancestors kept writing: sharing must never show.
func TestStorageChurnModel(t *testing.T) {
	steps := 4000
	if testing.Short() {
		steps = 1000
	}
	rng := rand.New(rand.NewSource(15))
	live := []*modelState{newModel()}
	deepest := 0 // the longest lineage of copies checked
	// One store for every reopening: CommitTo writes only the trie nodes
	// not yet stored, wherever the earlier ones went.
	kv := store.NewMem()
	lazy := func() (n int) {
		for _, m := range live {
			if m.s.db != nil {
				n++
			}
		}
		return n
	}

	for step := 0; step < steps; step++ {
		m := live[rng.Intn(len(live))]
		a := churnAddrs[rng.Intn(len(churnAddrs))]
		switch op := rng.Intn(40); {
		case op < 18:
			// A burst of writes: mostly fresh values, some clears. Bursts of
			// different sizes are what makes generations of different sizes.
			for n := 1 + rng.Intn(1<<rng.Intn(7)); n > 0; n-- {
				k := slotN(uint64(rng.Intn(churnKeys)))
				v := wordN(rng.Uint64() | 1)
				if rng.Intn(5) == 0 {
					v = types.ZeroWord
				}
				m.set(a, k, v)
				if got := m.s.GetState(a, k); got != v {
					t.Fatalf("step %d: read-your-write %x, wrote %x", step, got, v)
				}
			}
		case op < 22:
			m.snaps = append(m.snaps, modelSnap{m.s.Snapshot(), len(m.undo)})
		case op < 26:
			if len(m.snaps) > 0 {
				m.revert(rng.Intn(len(m.snaps)))
			}
		case op < 30:
			// Mid-sequence Root: open snapshots stay open across the seal.
			m.s.Root()
		case op < 36:
			// Copy flushes (and seals) its source under any open snapshot.
			// Copies of lazy states are lazy: cap them, or they take over.
			if m.s.db == nil || lazy() < 2 {
				live = append(live, m.fork(m.s.Copy()))
			}
		case op < 38:
			// Reopen lazily from a store: same model, storage in the trie.
			if lazy() < 2 {
				at, _, err := m.s.CommitTo(kv)
				if err != nil {
					t.Fatal(err)
				}
				re := m.fork(OpenAt(kv, at))
				re.copies = 0 // a lineage of its own, sharing only the store
				live = append(live, re)
			}
		default:
			m.check(t, step)
			deepest = max(deepest, m.copies)
		}
		if len(live) > 10 {
			// Drop any state, oldest or not: the rest must not notice.
			i := rng.Intn(len(live))
			live = append(live[:i], live[i+1:]...)
		}
		if step%500 == 499 {
			for _, m := range live {
				m.check(t, step)
				deepest = max(deepest, m.copies)
			}
		}
	}
	for _, m := range live {
		m.check(t, steps)
		deepest = max(deepest, m.copies)
	}
	t.Logf("deepest lineage checked: %d copies", deepest)
	if deepest < 8 {
		t.Fatalf("the churn checked no state more than %d copies down its lineage: it does not exercise sharing", deepest)
	}
}

// copyCost returns the allocations and bytes of one Copy of s.
func copyCost(s *StateDB) (allocs, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		s.Copy()
	}
	runtime.ReadMemStats(&m1)
	return (m1.Mallocs - m0.Mallocs) / runs, (m1.TotalAlloc - m0.TotalAlloc) / runs
}

// TestCopyDoesNotScaleWithStorage pins what Copy shares: a contract of
// 50 000 slots copies in exactly the allocations and bytes of one of 50.
func TestCopyDoesNotScaleWithStorage(t *testing.T) {
	build := func(slots uint64) *StateDB {
		s := New()
		for i := uint64(0); i < slots; i++ {
			s.SetState(addrN(0xcc), slotN(i), wordN(i+1))
		}
		s.DiscardJournal()
		s.Root()
		return s
	}
	smallAllocs, smallBytes := copyCost(build(50))
	bigAllocs, bigBytes := copyCost(build(50_000))
	t.Logf("Copy: %d allocs / %d B at 50 slots, %d allocs / %d B at 50 000", smallAllocs, smallBytes, bigAllocs, bigBytes)
	if bigAllocs != smallAllocs || bigBytes != smallBytes {
		t.Fatalf("Copy scales with storage: %d allocs / %d B at 50 slots, %d allocs / %d B at 50 000",
			smallAllocs, smallBytes, bigAllocs, bigBytes)
	}
}

// TestLineageHeapHoldsOneCopyOfStorage flushes a lineage of copies of a
// 20 000-slot contract, as a chain's post states are, keeping only the
// latest, and weighs the heap it holds against a lineage of the
// contract's storage trie built alone through the same writes and
// flushes: a flushed slot lives in the trie and nowhere else, so the
// states hold at most 1.2 times their trie. (A second, map-shaped copy of
// every slot beside the trie held 1.5 times it.)
func TestLineageHeapHoldsOneCopyOfStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes the heap")
	}
	const slots, writes, flushes = 20_000, 64, 300
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// The slot and value of every write, drawn before the heap is weighed.
	rng := rand.New(rand.NewSource(5))
	blocks := make([][writes][2]uint64, flushes)
	for f := range blocks {
		for w := range blocks[f] {
			blocks[f][w] = [2]uint64{uint64(rng.Intn(slots)), rng.Uint64() | 1}
		}
	}
	a := addrN(0xcc)

	base := heap()
	s := New()
	for i := range uint64(slots) {
		s.SetState(a, slotN(i), wordN(i+1))
	}
	s.DiscardJournal()
	s.Root()
	for _, block := range blocks {
		s = s.Copy()
		for _, w := range block {
			s.SetState(a, slotN(w[0]), wordN(w[1]))
		}
		s.DiscardJournal()
		s.Root()
	}
	lineage := heap() - base
	want := s.held(a).storageTrie.RootHash()
	s = nil

	update := func(tr *trie.SecureTrie, slot, value uint64) {
		k := slotN(slot)
		tr.Update(k[:], rlp.AppendString(nil, minimalBytes(wordN(value))))
	}
	base = heap()
	tr := trie.NewSecure()
	for i := range uint64(slots) {
		update(tr, i, i+1)
	}
	tr.RootHash()
	for _, block := range blocks {
		next := tr.Copy()
		for _, w := range block {
			update(&next, w[0], w[1])
		}
		next.RootHash()
		tr = &next
	}
	alone := heap() - base
	if tr.RootHash() != want {
		t.Fatal("the states and the trie built alone disagree")
	}
	ratio := float64(lineage) / float64(alone)
	t.Logf("a lineage of %d flushed copies holds %d B of heap, its storage trie built alone %d B: %.2fx", flushes, lineage, alone, ratio)
	if ratio > 1.2 {
		t.Errorf("the lineage holds %.2fx the heap of its storage trie built alone, want <= 1.2x", ratio)
	}
}

// TestStorageSharedReaders is the -race test of the sharing rule: a
// flushed post state is read (and copied) by several goroutines while a
// child copy of it writes and flushes. Nothing reachable from the shared
// state may be written.
func TestStorageSharedReaders(t *testing.T) {
	const slots = 2000
	a := addrN(0xcc)
	post := New()
	for round := uint64(0); round < 4; round++ { // a few flushes to share
		for i := round; i < slots; i += round + 1 {
			post.SetState(a, slotN(i), wordN(i*3+round+1))
		}
		post.Root()
	}
	post.DiscardJournal()
	want := slotsOf(post, a, slots)
	wantRoot := post.Root()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				view := post
				if r == 0 {
					view = post.Copy() // a copy of a flushed state writes nothing
				}
				for i := uint64(0); i < slots; i++ {
					if got := view.GetState(a, slotN(i)); got != want[slotN(i)] {
						t.Errorf("reader %d: slot %d = %x, want %x", r, i, got, want[slotN(i)])
						return
					}
				}
				if view.Root() != wantRoot {
					t.Errorf("reader %d: root moved", r)
					return
				}
			}
		}(r)
	}

	rng := rand.New(rand.NewSource(7))
	child := post.Copy()
	for block := 0; block < 60; block++ {
		for n := 0; n < 100; n++ {
			v := wordN(rng.Uint64() | 1)
			if n%7 == 0 {
				v = types.ZeroWord
			}
			child.SetState(a, slotN(uint64(rng.Intn(slots))), v)
		}
		child.DiscardJournal()
		child.Root()
		if block%3 == 0 {
			child = child.Copy()
		}
	}
	close(stop)
	wg.Wait()
	if got := child.Root(); got != rootFromScratch(child, slots) {
		t.Fatalf("writer root %x diverged from its merged view", got)
	}
}

// TestStorageSnapshotAcrossGenerations: a contract that went through
// many flushes, with slots cleared and set again along the way, exports
// the very records of a twin built flat in one flush, and
// the import lands on the same root and reads every slot of the flat
// shadow. A lazily opened state exports them too, also after it has
// written and flushed.
func TestStorageSnapshotAcrossGenerations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := newModel()
	for block := 0; block < 80; block++ {
		for n := 1 + rng.Intn(60); n > 0; n-- {
			v := wordN(rng.Uint64() | 1)
			if rng.Intn(4) == 0 {
				v = types.ZeroWord
			}
			m.set(churnAddrs[rng.Intn(len(churnAddrs))], slotN(uint64(rng.Intn(300))), v)
		}
		m.s.DiscardJournal()
		m.s.Root()
		if block%9 == 0 {
			m = m.fork(m.s.Copy())
		}
	}
	churned := exported(t, m.s)
	if flat := exported(t, flatTwin(m.flat)); !maps.EqualFunc(churned, flat, bytes.Equal) {
		t.Fatalf("snapshot of the churned state (%d records) differs from its flat twin's (%d)", len(churned), len(flat))
	}
	re := OpenAt(storeOf(t, churned), m.s.Root())
	for a, slots := range m.flat {
		for k, v := range slots {
			if got := re.GetState(a, k); got != v {
				t.Fatalf("imported slot %x of %x = %x, want %x", k, a, got, v)
			}
		}
	}
	if err := VerifyState(storeOf(t, churned), m.s.Root()); err != nil {
		t.Fatal(err)
	}

	kv := store.NewMem()
	at, _, err := m.s.CommitTo(kv)
	if err != nil {
		t.Fatal(err)
	}
	lazy := OpenAt(kv, at)
	if got := exported(t, lazy); !maps.EqualFunc(got, churned, bytes.Equal) {
		t.Fatalf("lazy export: %d records, want %d", len(got), len(churned))
	}
	lazy.SetState(churnAddrs[0], slotN(1), wordN(99))
	m.set(churnAddrs[0], slotN(1), wordN(99))
	if got, want := exported(t, lazy), exported(t, flatTwin(m.flat)); !maps.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("lazy export after a write: %d records, want %d", len(got), len(want))
	}
}
