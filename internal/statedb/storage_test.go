package statedb

import (
	"bytes"
	"maps"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"sereth/internal/store"
	"sereth/internal/types"
)

// The tests in this file pin the shared contract storage: the private
// overlay, the sealed generations under it and their merging must be
// indistinguishable from one flat map per state, for every state of a
// tree of copies, while the copies share everything they did not write.

// churnAddrs are the contracts the storage model writes; they exist in
// every state of the tree, so account creation stays out of the model.
var churnAddrs = []types.Address{addrN(0xc1), addrN(0xc2), addrN(0xc3)}

const churnKeys = 400

// modelState is one live state of the tree next to its flat shadow:
// flat holds exactly the non-zero slots, undo the shadow journal.
type modelState struct {
	s     *StateDB
	flat  map[types.Address]map[types.Word]types.Word
	undo  []modelUndo
	snaps []modelSnap
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

// fork returns a model of s holding a private copy of the shadow.
func (m *modelState) fork(s *StateDB) *modelState {
	cp := &modelState{s: s, flat: make(map[types.Address]map[types.Word]types.Word)}
	for a, slots := range m.flat {
		cp.flat[a] = maps.Clone(slots)
	}
	return cp
}

// flatTwin builds the state the shadow describes in one go: every slot
// written once, so each contract has a single generation.
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

// check compares every slot and the root of m with its shadow, then the
// shape of the flushed storage: no overlay left, no generations on a
// lazy account, and elsewhere a chain whose generations grow by the
// merge ratio going down, with no tombstone in the oldest.
func (m *modelState) check(t *testing.T, step int) (deepest int) {
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
	if got, want := m.s.Root(), rootFromScratch(m.s); m.s.db == nil && got != want {
		t.Fatalf("step %d: root %x, from the merged view %x", step, got, want)
	}
	for _, a := range churnAddrs {
		acc := m.s.held(a)
		if acc == nil {
			continue // a lazy state that never wrote this contract
		}
		if acc.storage != nil {
			t.Fatalf("step %d: %x keeps an overlay of %d slots after flush", step, a[19], len(acc.storage))
		}
		if acc.lazy && acc.gens != nil {
			t.Fatalf("step %d: lazy account %x grew generations", step, a[19])
		}
		depth, oldest := 0, 0
		for g := acc.gens; g != nil; g = g.below {
			depth++
			oldest = len(g.slots)
			if g.below != nil && len(g.below.slots) < genMergeRatio*len(g.slots) {
				t.Fatalf("step %d: %x generation of %d slots sits on one of %d", step, a[19], len(g.slots), len(g.below.slots))
			}
			if g.below == nil {
				for k, v := range g.slots {
					if v.IsZero() {
						t.Fatalf("step %d: %x keeps a tombstone for %x in its oldest generation", step, a[19], k)
					}
				}
			}
		}
		if limit := bits.Len(uint(oldest)); depth > limit {
			t.Fatalf("step %d: %x is %d generations deep over %d slots, want <= %d", step, a[19], depth, oldest, limit)
		}
		deepest = max(deepest, depth)
	}
	return deepest
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
	deepest := 0
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
				live = append(live, m.fork(OpenAt(kv, at)))
			}
		default:
			deepest = max(deepest, m.check(t, step))
		}
		if len(live) > 10 {
			// Drop any state, oldest or not: the rest must not notice.
			i := rng.Intn(len(live))
			live = append(live[:i], live[i+1:]...)
		}
		if step%500 == 499 {
			for _, m := range live {
				deepest = max(deepest, m.check(t, step))
			}
		}
	}
	for _, m := range live {
		deepest = max(deepest, m.check(t, steps))
	}
	t.Logf("deepest chain: %d generations", deepest)
	if deepest < 3 {
		t.Fatalf("the churn never stacked more than %d generations: it does not exercise merging", deepest)
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

// TestStorageSharedReaders is the -race test of the sharing rule: a
// flushed post state is read (and copied) by several goroutines while a
// child copy of it writes, flushes, seals and merges. Nothing reachable
// from the shared state may be written.
func TestStorageSharedReaders(t *testing.T) {
	const slots = 2000
	a := addrN(0xcc)
	post := New()
	for round := uint64(0); round < 4; round++ { // a few generations to share
		for i := round; i < slots; i += round + 1 {
			post.SetState(a, slotN(i), wordN(i*3+round+1))
		}
		post.Root()
	}
	post.DiscardJournal()
	want := post.held(a).slots()
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
	if got := child.Root(); got != rootFromScratch(child) {
		t.Fatalf("writer root %x diverged from its merged view", got)
	}
}

// TestStorageSnapshotAcrossGenerations: a contract that went through
// many generations, with slots cleared and set again along the way,
// exports the very records of a twin built flat in one generation, and
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
	if m.s.held(churnAddrs[0]).gens.below == nil {
		t.Fatal("fixture has a single generation")
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
