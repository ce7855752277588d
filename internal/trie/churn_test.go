package trie

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
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

// unhashedNodes returns the nodes of tr made since its last hashing.
// Nothing below a hashed node needs visiting: hashing fills a node's
// reference after all of its children's.
func unhashedNodes(tr *Trie) map[node]bool {
	nodes := map[node]bool{}
	var visit func(n node)
	visit = func(n node) {
		switch cur := n.(type) {
		case *shortNode:
			if cur.cache.refLen == 0 {
				nodes[cur] = true
				visit(cur.val)
			}
		case *fullNode:
			if cur.cache.refLen == 0 {
				nodes[cur] = true
				for _, child := range cur.children[:16] {
					visit(child)
				}
			}
		}
	}
	visit(tr.root)
	return nodes
}

// checkPrivate fails if an unhashed node is reachable from two of the
// tries: each trie writes its unhashed nodes in place, so a shared one,
// as two tries taking their nodes from one chunk would make, is written
// under the other.
func checkPrivate(t *testing.T, step int, tries []*modelTrie) {
	t.Helper()
	owner := map[node]string{}
	for _, m := range tries {
		for n := range unhashedNodes(m.tr) {
			if other, ok := owner[n]; ok {
				t.Fatalf("step %d: an unhashed node is reachable from trie %s and from trie %s", step, other, m.name)
			}
			owner[n] = m.name
		}
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
// re-check every live trie after its relatives kept writing and that no
// two of them reach one unhashed node.
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
			checkPrivate(t, step, sides)
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
			checkPrivate(t, step, live)
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

// TestCopiesShareOnlyHashedNodes has a trie and its Copy both write,
// over paths the trie's previous generation wrote, which their new nodes
// take from chunks: the source's chunk had slots left when it was
// copied, and neither side may hand those out to the other. After every
// round each side reads its own values, and no unhashed node is
// reachable from both.
func TestCopiesShareOnlyHashedNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	keys := make([][]byte, 300)
	for i := range keys {
		keys[i] = make([]byte, 32)
		rng.Read(keys[i])
	}
	src := &modelTrie{tr: New(), shadow: map[string]string{}, name: "source"}
	write := func(m *modelTrie, round int, ks [][]byte) {
		for _, k := range ks {
			v := fmt.Sprintf("%s %d", m.name, round)
			m.tr.Update(k, []byte(v))
			m.shadow[string(k)] = v
		}
	}
	write(src, 0, keys)
	for round := 1; round <= 40; round++ {
		hot := keys[:10+rng.Intn(len(keys)-10)]
		write(src, round, hot)
		src.tr.RootHash()
		write(src, round, hot[:1+rng.Intn(len(hot))]) // its chunks have slots left
		cp := src.tr.Copy()
		dst := &modelTrie{tr: &cp, shadow: maps.Clone(src.shadow), name: "copy"}
		for _, m := range []*modelTrie{src, dst} {
			write(m, round, hot)
		}
		checkPrivate(t, round, []*modelTrie{src, dst})
		for _, m := range []*modelTrie{src, dst} {
			for _, k := range hot {
				if got := m.tr.Get(k); string(got) != m.shadow[string(k)] {
					t.Fatalf("round %d, trie %s: Get(%x) = %q, want %q", round, m.name, k, got, m.shadow[string(k)])
				}
			}
		}
		if round%8 == 0 {
			dst.check(t, round, nil)
		}
	}
	src.check(t, 40, nil)
}

// TestTrieSharedReaders has readers Get, RootHash and Copy a hashed trie
// while a copy of it flushes blocks of writes and hashes them — what a
// chain's retained post states and the next block's execution do — and
// a copy of each block's post state writes as well, before the block's
// trie hashes again. Under the race detector, a write to a node the
// parent shares fails the test; without it, the readers' values and
// root still pin the parent; and no unhashed node is reachable from both
// the block's trie and its copy.
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
		var sibling Trie
		for i := 0; i < 250; i++ {
			k := keys[rng.Intn(len(keys))]
			if i%10 == 0 {
				child.Delete(k)
			} else {
				child.Update(k, []byte{byte(block), byte(i), 1})
			}
			if i == 125 {
				sibling = child.Copy() // a view of the half-built block
			}
			if i >= 125 {
				sibling.Update(keys[rng.Intn(len(keys))], []byte{byte(block), byte(i), 2})
			}
		}
		checkPrivate(t, block, []*modelTrie{{tr: &child, name: "block"}, {tr: &sibling, name: "its copy"}})
		child.RootHash()
		child = child.Copy() // the next block builds on this one's post state
	}
	close(stop)
	wg.Wait()
	if parent.RootHash() != root {
		t.Fatal("the shared parent's root moved")
	}
}

// TestLineageHeapHoldsItsTrie flushes a lineage of copies, as a chain's
// post states are, keeping only the latest, and weighs the heap it holds
// against a trie of the same contents built in one burst. A chunk stays
// allocated while any of its nodes does, and keeps what its dead nodes
// point to alive with it: chunks that could keep one another alive
// would hold the lineage's whole history, and chunks of long-lived
// nodes would hold several times the trie.
func TestLineageHeapHoldsItsTrie(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes the heap")
	}
	const keys, writes, flushes = 4096, 64, 1500
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%d", i)) }
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	rng := rand.New(rand.NewSource(7))
	contents := map[int]byte{}
	base := heap()
	tip := NewSecure()
	var samples []uint64
	for f := 1; f <= flushes; f++ {
		next := tip.Copy()
		for range writes {
			i := rng.Intn(keys)
			contents[i] = byte(f)
			next.Update(key(i), []byte{byte(f), 1})
		}
		next.RootHash()
		tip = &next
		if f%(flushes/3) == 0 {
			samples = append(samples, heap()-base)
		}
	}
	fresh := NewSecure()
	for i, v := range contents {
		fresh.Update(key(i), []byte{v, 1})
	}
	if fresh.RootHash() != tip.RootHash() {
		t.Fatal("the lineage and the trie built in one burst disagree")
	}
	tip = nil
	alone := heap() - base
	runtime.KeepAlive(fresh)
	lineage := samples[len(samples)-1]
	t.Logf("heap held by the lineage at every %d flushes %v B, by the trie built alone %d B", flushes/3, samples, alone)
	if lineage > 2*alone {
		t.Errorf("the lineage holds %d B of heap, more than twice the %d B of its trie built alone", lineage, alone)
	}
}
