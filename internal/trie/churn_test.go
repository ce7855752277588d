package trie

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sereth/internal/store"
)

// modelTrie is one live trie of the churn and the contents it must hold.
type modelTrie struct {
	tr     *Trie
	shadow map[string]string
	name   string // its lineage, for failure messages
}

// check compares every key and the root with a from-scratch rebuild of
// the shadow, and probes keys the shadow does not hold.
func (m *modelTrie) check(t *testing.T, step int, keys []string) {
	t.Helper()
	rebuilt := New()
	for k, v := range m.shadow {
		rebuilt.Update([]byte(k), []byte(v))
		if got := m.tr.Get([]byte(k)); string(got) != v {
			t.Fatalf("step %d, trie %s: Get(%x) = %x, want %x", step, m.name, k, got, v)
		}
	}
	for _, k := range keys {
		if got := m.tr.Get([]byte(k)); string(got) != m.shadow[k] {
			t.Fatalf("step %d, trie %s: Get(%x) = %x, want %x", step, m.name, k, got, m.shadow[k])
		}
	}
	if got, want := m.tr.RootHash(), rebuilt.RootHash(); got != want {
		t.Fatalf("step %d, trie %s: root %x, from-scratch rebuild %x", step, m.name, got, want)
	}
	if got := m.tr.Len(); got != len(m.shadow) {
		t.Fatalf("step %d, trie %s: Len %d, want %d", step, m.name, got, len(m.shadow))
	}
}

// TestTrieChurnModel drives a tree of trie copies against shadow maps:
// bursts of updates and deletes, hashing, commits to a store, copies —
// also of tries that were never hashed, the case the in-place rule
// depends on Copy hashing for —, copies of copies, reopening from the
// committed root, and drops, over up to 8 live tries; and both sides of
// a fresh copy writing one key twice, the second write in place, while
// the other side must read its own value. A burst is checked
// by reads alone, so tries stay unhashed between the full checks, which
// re-check every live trie after its relatives kept writing.
func TestTrieChurnModel(t *testing.T) {
	steps := 4000
	if testing.Short() {
		steps = 1000
	}
	rng := rand.New(rand.NewSource(18))
	db := store.NewMem()

	// Keys that are prefixes of one another, and fixed-width ones that
	// fill branches the way hashed keys do.
	var keys []string
	for n := 1; n <= 3; n++ {
		for i := 0; i < 1<<(2*n); i++ {
			k := make([]byte, n)
			for j := range k {
				k[j] = 0x12 + byte(i>>(2*j)&1) + 0x10*byte(i>>(2*j+1)&1)
			}
			keys = append(keys, string(k))
		}
	}
	for i := 0; i < 400; i++ {
		k := make([]byte, 8)
		rng.Read(k)
		keys = append(keys, string(k))
	}

	live := []*modelTrie{{tr: New(), shadow: map[string]string{}, name: "0"}}
	born := 1
	add := func(tr *Trie, from *modelTrie, how string) *modelTrie {
		shadow := make(map[string]string, len(from.shadow))
		for k, v := range from.shadow {
			shadow[k] = v
		}
		m := &modelTrie{tr: tr, shadow: shadow, name: fmt.Sprintf("%s>%s%d", from.name, how, born)}
		born++
		if len(live) < 8 {
			live = append(live, m)
		} else {
			live[rng.Intn(len(live))] = m
		}
		return m
	}
	commit := func(m *modelTrie) {
		b := &store.Batch{}
		m.tr.Commit(b)
		if err := db.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	copiedUnhashed := 0
	for step := 0; step < steps; step++ {
		m := live[rng.Intn(len(live))]
		switch op := rng.Intn(21); {
		case op < 10: // a burst of writes, as one block's flush makes
			n := 1 + rng.Intn(40)
			touched := make([]string, n)
			for i := range touched {
				k := keys[rng.Intn(len(keys))]
				touched[i] = k
				if rng.Intn(4) == 0 {
					m.tr.Delete([]byte(k))
					delete(m.shadow, k)
					continue
				}
				v := make([]byte, 1+rng.Intn(40))
				rng.Read(v)
				m.tr.Update([]byte(k), v)
				m.shadow[k] = string(v)
			}
			for _, k := range touched {
				if got := m.tr.Get([]byte(k)); string(got) != m.shadow[k] {
					t.Fatalf("step %d, trie %s: Get(%x) = %x after its burst, want %x", step, m.name, k, got, m.shadow[k])
				}
			}
		case op < 12:
			m.tr.RootHash()
		case op < 13:
			commit(m)
		case op < 16:
			if c := cacheOf(m.tr.root); c != nil && c.refLen == 0 {
				copiedUnhashed++
			}
			cp := m.tr.Copy()
			add(&cp, m, "copy")
		case op < 18:
			// Both sides of a Copy write one key twice before either
			// hashes again: the first write makes each side a leaf of its
			// own, the second overwrites that leaf in place, and neither
			// may reach the other, which must still read its own value.
			k := keys[rng.Intn(len(keys))]
			cp := m.tr.Copy()
			sides := []*modelTrie{m, add(&cp, m, "copy")}
			if rng.Intn(2) == 0 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for i, side := range sides {
				for range 2 {
					v := make([]byte, 1+rng.Intn(40))
					rng.Read(v)
					side.tr.Update([]byte(k), v)
					side.shadow[k] = string(v)
				}
				for _, m := range sides {
					if got := m.tr.Get([]byte(k)); string(got) != m.shadow[k] {
						t.Fatalf("step %d, trie %s: Get(%x) = %x after side %d overwrote it twice, want %x", step, m.name, k, got, i, m.shadow[k])
					}
				}
			}
		case op < 19:
			if m.tr.root == nil {
				continue
			}
			commit(m)
			add(NewFromRoot(db, m.tr.RootHash()), m, "reopen")
		case op < 20:
			if len(live) > 1 {
				i := rng.Intn(len(live))
				live = append(live[:i], live[i+1:]...)
			}
		default:
			for _, m := range live {
				m.check(t, step, keys[:84])
			}
		}
	}
	for _, m := range live {
		m.check(t, steps, keys)
	}
	if copiedUnhashed < steps/100 {
		t.Fatalf("only %d copies were taken of a trie with unhashed nodes", copiedUnhashed)
	}
}

// TestTrieSharedReaders has readers Get, RootHash and Copy a hashed trie
// while a copy of it flushes blocks of writes and hashes them — what a
// chain's retained post states and the next block's execution do. Under
// the race detector, a write to a node the parent shares fails the test;
// without it, the readers' values and root still pin the parent.
func TestTrieSharedReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keys := make([][]byte, 2000)
	parent := New()
	for i := range keys {
		keys[i] = make([]byte, 8)
		rng.Read(keys[i])
		parent.Update(keys[i], keys[i][:4])
	}
	root := parent.RootHash()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[i%len(keys)]
				if got := parent.Get(k); !bytes.Equal(got, k[:4]) {
					t.Errorf("reader: Get(%x) = %x, want %x", k, got, k[:4])
					return
				}
				if got := parent.RootHash(); got != root {
					t.Errorf("reader: root %x, want %x", got, root)
					return
				}
				if cp := parent.Copy(); i%64 == 0 {
					cp.Update(k, []byte("reader's own"))
					cp.RootHash()
				}
			}
		}(r)
	}
	child := parent.Copy()
	for block := 0; block < 40; block++ {
		for i := 0; i < 250; i++ {
			k := keys[rng.Intn(len(keys))]
			if i%10 == 0 {
				child.Delete(k)
			} else {
				child.Update(k, []byte{byte(block), byte(i), 1})
			}
		}
		child.RootHash()
		child = child.Copy() // the next block builds on this one's post state
	}
	close(stop)
	wg.Wait()
	if parent.RootHash() != root {
		t.Fatal("the shared parent's root moved")
	}
}
