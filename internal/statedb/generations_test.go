package statedb

import (
	"maps"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"sereth/internal/trie"
	"sereth/internal/types"
)

// The tests in this file pin the account generations: a copy costs what
// its block touches, not the state; an account struct belongs to one
// overlay until a flush seals it, and is never written after that.

// spreadAddr is the i-th of a set of addresses spread over the account
// trie as real ones are.
func spreadAddr(i int) types.Address {
	h := types.Keccak([]byte{byte(i), byte(i >> 8), byte(i >> 16)})
	return types.Address(h[:20])
}

// blockCost returns the allocations and bytes of one block's worth of
// state work on a copy of s — the copy, one touched account, the root —
// less those of the same update on a copy of its account trie alone: a
// path in a larger trie is longer, and the trie pins its own costs.
func blockCost(s *StateDB, touched types.Address) (allocs, bytes int64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 20
	key, value := types.Keccak(touched[:]), make([]byte, maxAccountEnc)
	measure := func(step func()) (int64, int64) {
		step() // takes a pooled overlay map for the runs to reuse
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for range runs {
			step()
		}
		runtime.ReadMemStats(&m1)
		return int64(m1.Mallocs-m0.Mallocs) / runs, int64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	stateAllocs, stateBytes := measure(func() {
		cp := s.Copy()
		cp.AddBalance(touched, 1)
		cp.Root()
	})
	trieAllocs, trieBytes := measure(func() {
		cp := s.accTrie.Copy()
		cp.UpdateHashed(key, value)
		cp.RootHash()
	})
	return stateAllocs - trieAllocs, stateBytes - trieBytes
}

// TestCopyCostsWhatTheBlockTouches: Copy, one touched account and Root
// allocate the same objects and bytes on a state of 1 000 accounts and on
// one of 100 000, beyond the path the account trie copies: 6 objects and
// 936 B. Copy shares
// the generations that hold the accounts; it rebuilt the account map and
// copied every account before (17 objects and 223 KB at 1 000 accounts,
// 272 and 18.9 MB at 100 000, the trie's path included).
func TestCopyCostsWhatTheBlockTouches(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	build := func(n int) *StateDB {
		s := New()
		for i := range n {
			s.AddBalance(spreadAddr(i), uint64(i)+1)
		}
		s.DiscardJournal()
		s.Root()
		return s
	}
	small, big := build(1_000), build(100_000)
	smallAllocs, smallBytes := blockCost(small, spreadAddr(7))
	bigAllocs, bigBytes := blockCost(big, spreadAddr(7))
	t.Logf("copy, touch, root beyond the trie's path: %d allocs / %d B at 1 000 accounts, %d allocs / %d B at 100 000",
		smallAllocs, smallBytes, bigAllocs, bigBytes)
	// A sync.Pool miss (a trie hasher's 1 KiB buffer) shows as some 50 B
	// a run: bytes are compared to within two of them.
	if bigAllocs != smallAllocs || max(bigBytes-smallBytes, smallBytes-bigBytes) > 128 {
		t.Fatalf("a copy's block scales with the state: %d allocs / %d B at 1 000 accounts, %d / %d at 100 000",
			smallAllocs, smallBytes, bigAllocs, bigBytes)
	}
}

// ownership checks the rule the generations rest on over a set of live
// states: an account struct in an overlay is in no other overlay and in
// no generation, and neither is its storage-trie handle; a struct in a
// generation is never written again. sealed remembers every sealed
// struct seen, as it was then, with its storage root.
type ownership struct {
	sealed map[*account]sealedAccount
}

type sealedAccount struct {
	acc  account
	root types.Hash
}

func (o *ownership) check(t *testing.T, step int, states []*StateDB) {
	t.Helper()
	handles := make(map[*trie.SecureTrie]bool)
	for _, s := range states {
		for g := s.gens; g != nil; g = g.below {
			for _, e := range g.entries {
				acc := e.acc
				if acc == nil {
					continue
				}
				root := trie.EmptyRoot
				if acc.storageTrie != nil {
					root = acc.storageTrie.RootHash() // hashed: writes nothing
					handles[acc.storageTrie] = true
				}
				was, seen := o.sealed[acc]
				if !seen {
					o.sealed[acc] = sealedAccount{*acc, root}
					continue
				}
				if !reflect.DeepEqual(was.acc, *acc) || was.root != root {
					t.Fatalf("step %d: the sealed account %x was written (nonce %d, balance %d; sealed with %d, %d)",
						step, e.addr, acc.nonce, acc.balance, was.acc.nonce, was.acc.balance)
				}
			}
		}
	}
	owner := make(map[*account]types.Address)
	for _, s := range states {
		for addr, acc := range s.accounts {
			if acc == nil {
				continue
			}
			if other, ok := owner[acc]; ok {
				t.Fatalf("step %d: the account struct of %x is in two overlays (also as %x)", step, addr, other)
			}
			owner[acc] = addr
			if _, ok := o.sealed[acc]; ok {
				t.Fatalf("step %d: the overlay's account %x is a sealed struct", step, addr)
			}
			if acc.storageTrie != nil && handles[acc.storageTrie] {
				t.Fatalf("step %d: the overlay's account %x shares a sealed account's storage-trie handle", step, addr)
			}
		}
	}
}

// shape checks a state's generations: sorted, each at least
// genMergeRatio times the size of the one above it, logarithmically
// deep, and with no tombstone in the oldest.
func shape(t *testing.T, step int, s *StateDB) {
	t.Helper()
	depth, oldest := 0, 0
	for g := s.gens; g != nil; g = g.below {
		depth++
		oldest = len(g.entries)
		for i := 1; i < len(g.entries); i++ {
			if byAddress(g.entries[i-1], g.entries[i]) >= 0 {
				t.Fatalf("step %d: a generation is not sorted at %d", step, i)
			}
		}
		if g.below != nil && len(g.below.entries) < genMergeRatio*len(g.entries) {
			t.Fatalf("step %d: a generation of %d accounts sits on one of %d", step, len(g.entries), len(g.below.entries))
		}
		if g.below == nil {
			for _, e := range g.entries {
				if e.acc == nil {
					t.Fatalf("step %d: the oldest generation keeps a tombstone for %x", step, e.addr)
				}
			}
		}
	}
	if limit := bits.Len(uint(oldest)); depth > limit {
		t.Fatalf("step %d: %d generations deep over %d accounts, want <= %d", step, depth, oldest, limit)
	}
}

// clone copies the shadow's contents without its journal.
func (sh *shadowState) clone() *shadowState {
	cp := &shadowState{
		nonce:   maps.Clone(sh.nonce),
		balance: maps.Clone(sh.balance),
		code:    maps.Clone(sh.code),
		storage: make(map[types.Address]map[types.Word]types.Word),
		exists:  maps.Clone(sh.exists),
	}
	for a, slots := range sh.storage {
		cp.storage[a] = maps.Clone(slots)
	}
	return cp
}

// TestAccountOwnership drives a tree of copies — each writing nonces,
// balances, code and slots of a small set of accounts, creating some,
// reverting across Roots in the middle of its body and being copied in
// turn — and after every step checks the ownership rule over all live
// states, each state against a closure-journal shadow and the shape of
// its generations, and at every Root its commitment against one rebuilt
// from scratch. -short runs 500 of its 3000 steps.
func TestAccountOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type live struct {
		s     *StateDB
		sh    *shadowState
		snaps [][2]int
	}
	addr := func() types.Address { return spreadAddr(rng.Intn(24)) }
	base := &live{s: New(), sh: newShadow()}
	for i := range 12 {
		base.s.AddBalance(spreadAddr(i), 1000)
		base.sh.addBalance(spreadAddr(i), 1000)
	}
	base.s.SetCode(spreadAddr(0), []byte{1, 2, 3})
	base.sh.setCode(spreadAddr(0), []byte{1, 2, 3})
	base.s.DiscardJournal()
	base.sh.journal = nil
	base.s.Root()
	states := []*live{base}
	o := &ownership{sealed: make(map[*account]sealedAccount)}
	all := func() []*StateDB {
		out := make([]*StateDB, len(states))
		for i, l := range states {
			out[i] = l.s
		}
		return out
	}
	steps := 3000
	if testing.Short() {
		steps = 500
	}
	for step := range steps {
		l := states[rng.Intn(len(states))]
		switch op := rng.Intn(20); {
		case op < 3:
			a, n := addr(), rng.Uint64()%1000
			l.s.SetNonce(a, n)
			l.sh.setNonce(a, n)
		case op < 6:
			a, v := addr(), rng.Uint64()%500
			l.s.AddBalance(a, v)
			l.sh.addBalance(a, v)
		case op < 7:
			a, v := addr(), rng.Uint64()%700
			if got, want := l.s.SubBalance(a, v), l.sh.subBalance(a, v); got != want {
				t.Fatalf("step %d: SubBalance = %v, shadow %v", step, got, want)
			}
		case op < 8:
			a, code := addr(), []byte{byte(rng.Intn(4))}
			l.s.SetCode(a, code)
			l.sh.setCode(a, code)
		case op < 11:
			a := addr()
			k, v := slotN(uint64(rng.Intn(8))), wordN(rng.Uint64()%3)
			l.s.SetState(a, k, v)
			l.sh.setState(a, k, v)
		case op < 13:
			l.snaps = append(l.snaps, [2]int{l.s.Snapshot(), l.sh.snapshot()})
		case op < 15:
			if len(l.snaps) == 0 {
				continue
			}
			i := rng.Intn(len(l.snaps))
			l.s.RevertToSnapshot(l.snaps[i][0])
			l.sh.revert(l.snaps[i][1])
			l.snaps = l.snaps[:i]
		case op < 17:
			if got, want := l.s.Root(), rootFromScratch(l.s, 8); got != want {
				t.Fatalf("step %d: root %x, from scratch %x", step, got, want)
			}
		case op < 18:
			l.s.DiscardJournal()
			l.sh.journal, l.snaps = nil, nil
		default:
			cp := &live{s: l.s.Copy(), sh: l.sh.clone()}
			if len(states) < 8 {
				states = append(states, cp)
			} else {
				states[rng.Intn(len(states))] = cp
			}
		}
		o.check(t, step, all())
		agree(t, step, l.s, l.sh)
		shape(t, step, l.s)
	}
	t.Logf("%d sealed account structs checked over %d steps", len(o.sealed), steps)
}
