package trie

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"sereth/internal/types"
)

// mapDB is a node store that can be enumerated: what Commit wrote, key
// by key.
type mapDB map[string][]byte

func (m mapDB) Get(k []byte) ([]byte, bool) { v, ok := m[string(k)]; return v, ok }
func (m mapDB) Put(k, v []byte)             { m[string(k)] = bytes.Clone(v) }

// walked collects the records Walk visits, failing on a record visited
// under a key that is not its hash.
func walked(t *testing.T, tr *Trie) mapDB {
	t.Helper()
	got := mapDB{}
	err := tr.Walk(nil, func(hash, enc []byte) {
		if types.Keccak(enc) != types.Hash(hash) {
			t.Fatalf("record visited under %x hashes to %x", hash, types.Keccak(enc))
		}
		got.Put(hash, enc)
	}, nil)
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	return got
}

// referenced is the oracle: the records of db some chain of by-hash
// references leads to from root, found by decoding, not by walking.
func referenced(t *testing.T, db mapDB, root types.Hash) mapDB {
	t.Helper()
	out := mapDB{}
	var follow func(n node)
	follow = func(n node) {
		switch cur := n.(type) {
		case hashNode:
			enc, ok := db[string(cur[:])]
			if !ok {
				t.Fatalf("committed store lacks %x", cur[:])
			}
			out[string(cur[:])] = enc
			below, err := decodeNode(enc)
			if err != nil {
				t.Fatal(err)
			}
			follow(below)
		case *shortNode:
			follow(cur.val)
		case *fullNode:
			for _, child := range cur.children {
				follow(child)
			}
		}
	}
	if root != EmptyRoot {
		follow(hashNode(root))
	}
	return out
}

// walkShapes are the tries the walk is checked on: fixed-width hashed
// keys with values on both sides of the 32-byte embedding limit (a
// state's tries), raw keys of every length with proper prefixes of one
// another (values in branch slots, bare values referenced by hash), a
// root smaller than 32 bytes, and nothing.
var walkShapes = map[string]func(rng *rand.Rand) map[string][]byte{
	"secure": func(rng *rand.Rand) map[string][]byte {
		kvs := map[string][]byte{}
		for i := 0; i < 400; i++ {
			h := types.Keccak([]byte(fmt.Sprintf("key-%d", i)))
			kvs[string(h[:])] = bytes.Repeat([]byte{byte(i + 1)}, 1+rng.Intn(80))
		}
		return kvs
	},
	"raw": func(rng *rand.Rand) map[string][]byte {
		kvs := map[string][]byte{}
		for i := 0; i < 400; i++ {
			k := make([]byte, rng.Intn(5))
			for j := range k {
				k[j] = byte(rng.Intn(4)) << 4 // few distinct nibbles: deep shared prefixes
			}
			kvs[string(k)] = bytes.Repeat([]byte{byte(i + 1)}, 1+rng.Intn(80))
		}
		return kvs
	},
	"small-root": func(*rand.Rand) map[string][]byte { return map[string][]byte{"k": {1}} },
	"empty":      func(*rand.Rand) map[string][]byte { return map[string][]byte{} },
}

func build(kvs map[string][]byte) *Trie {
	tr := New()
	for k, v := range kvs {
		tr.Update([]byte(k), v)
	}
	return tr
}

// TestWalkVisitsWhatCommitWrites: from a trie held in memory, from the
// same trie reopened by its root, and from a reopened trie written to
// since (nodes in memory above references into the store), Walk visits
// exactly the records the root references, and those are exactly what
// Commit writes for that trie into an empty store: no copy of a leaf
// value, which no node references. Superseded nodes, which the store the
// reopened tries read through is full of, are not visited.
func TestWalkVisitsWhatCommitWrites(t *testing.T) {
	for name, shape := range walkShapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			kvs := shape(rng)
			want := func(kvs map[string][]byte) mapDB {
				db := mapDB{}
				tr := build(kvs)
				tr.Commit(db)
				ref := referenced(t, db, tr.RootHash())
				if !maps.EqualFunc(db, ref, bytes.Equal) {
					t.Fatalf("Commit wrote %d records, the root references %d", len(db), len(ref))
				}
				return ref
			}
			check := func(form string, tr *Trie, want mapDB) {
				t.Helper()
				got := walked(t, tr)
				if !maps.EqualFunc(got, want, bytes.Equal) {
					t.Fatalf("%s: walked %d records, the root references %d", form, len(got), len(want))
				}
			}

			mem := build(kvs)
			check("in memory", mem, want(kvs))

			// A store with history: the trie committed, churned, committed.
			db := mapDB{}
			mem.Commit(db)
			for k := range kvs {
				if rng.Intn(3) == 0 {
					delete(kvs, k)
					mem.Delete([]byte(k))
				} else if rng.Intn(3) == 0 {
					kvs[k] = bytes.Repeat([]byte{0xee}, 1+rng.Intn(80))
					mem.Update([]byte(k), kvs[k])
				}
			}
			root := mem.RootHash()
			mem.Commit(db)
			latest := want(kvs)
			if len(kvs) > 1 && len(db) <= len(latest) {
				t.Fatalf("fixture store holds no superseded node (%d records, %d live)", len(db), len(latest))
			}
			check("committed", mem, latest)
			re := NewFromRoot(db, root)
			check("reopened", re, latest)

			for i := 0; i < 40; i++ {
				k := []byte(fmt.Sprintf("late-%d", i))
				if name == "secure" {
					h := types.Keccak(k)
					k = h[:]
				}
				kvs[string(k)] = bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(80))
				re.Update(k, kvs[string(k)])
			}
			check("reopened and written", re, want(kvs))
		})
	}
}

// TestWalkMarksTheUnion: walks of several versions of a trie — reopened
// from their roots, and the newest held in memory — that share one mark
// set visit every record some root references exactly once, and a walk
// of a root already walked visits nothing: the mark of a sweep costs the
// union of what its roots reference, not the sum.
func TestWalkMarksTheUnion(t *testing.T) {
	for name, shape := range walkShapes {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			kvs := shape(rng)
			mem, db := build(kvs), mapDB{}
			var roots []types.Hash
			for range 4 {
				roots = append(roots, mem.RootHash())
				mem.Commit(db)
				for k := range kvs {
					if rng.Intn(8) == 0 {
						mem.Update([]byte(k), bytes.Repeat([]byte{byte(rng.Intn(256))}, 1+rng.Intn(80)))
					}
				}
			}
			mem.RootHash()
			union := referenced(t, db, roots[0])
			marked := map[types.Hash]struct{}{}
			visited := mapDB{}
			visit := func(hash, enc []byte) {
				if _, dup := visited[string(hash)]; dup {
					t.Fatalf("record %x visited twice", hash)
				}
				visited.Put(hash, enc)
			}
			walk := func(tr *Trie) {
				t.Helper()
				if err := tr.Walk(marked, visit, nil); err != nil {
					t.Fatal(err)
				}
			}
			walk(mem)
			for _, root := range roots {
				maps.Copy(union, referenced(t, db, root))
				walk(NewFromRoot(db, root))
			}
			// The in-memory version was never committed: its records are
			// the ones its walk visited before the others.
			maps.Copy(union, walked(t, mem))
			if !maps.EqualFunc(visited, union, bytes.Equal) || len(marked) != len(union) {
				t.Fatalf("visited %d records, marked %d, the roots reference %d", len(visited), len(marked), len(union))
			}
			before := len(visited)
			walk(NewFromRoot(db, roots[1]))
			walk(mem)
			if len(visited) != before {
				t.Fatalf("walks of marked roots visited %d more records", len(visited)-before)
			}
		})
	}
}

// TestWalkWritesNothing: goroutines walk a hashed trie while others read
// it (the race detector is the assertion), and the trie then commits
// every node it would have committed unwalked — no stored flag was set.
func TestWalkWritesNothing(t *testing.T) {
	kvs := walkShapes["secure"](rand.New(rand.NewSource(7)))
	tr := build(kvs)
	tr.RootHash()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := tr.Walk(nil, func(_, _ []byte) {}, func([]byte) error { return nil }); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			cp := tr.Copy()
			for k, v := range kvs {
				if !bytes.Equal(cp.Get([]byte(k)), v) {
					t.Error("reader saw a wrong value")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, want := tr.Commit(mapDB{}), build(kvs).Commit(mapDB{}); got != want {
		t.Fatalf("a walked trie committed %d records, an unwalked twin %d", got, want)
	}
}

// TestWalkReportsDamage: with any one referenced record missing or
// altered the walk of a reopened trie returns an error — it never
// panics, as a lookup would — and the leaves it reports are the trie's.
func TestWalkReportsDamage(t *testing.T) {
	kvs := walkShapes["secure"](rand.New(rand.NewSource(9)))
	db := mapDB{}
	tr := build(kvs)
	tr.Commit(db)
	root := tr.RootHash()

	leaves := 0
	err := NewFromRoot(db, root).Walk(nil, func(_, _ []byte) {}, func(v []byte) error {
		leaves++
		return nil
	})
	if err != nil || leaves != len(kvs) {
		t.Fatalf("intact store: %d leaves of %d, err %v", leaves, len(kvs), err)
	}
	stop := fmt.Errorf("stop")
	if err := NewFromRoot(db, root).Walk(nil, func(_, _ []byte) {}, func([]byte) error { return stop }); err != stop {
		t.Fatalf("onLeaf's error came back as %v", err)
	}
	if err := NewFromRoot(nil, root).Walk(nil, func(_, _ []byte) {}, nil); err == nil {
		t.Fatal("walk without a reader passed")
	}
	for k, enc := range referenced(t, db, root) {
		delete(db, k)
		if err := NewFromRoot(db, root).Walk(nil, func(_, _ []byte) {}, nil); err == nil {
			t.Fatalf("walk passed without record %x", k)
		}
		for _, at := range []int{0, len(enc) / 2, len(enc) - 1} {
			bad := bytes.Clone(enc)
			bad[at] ^= 0x10
			db[k] = bad
			if err := NewFromRoot(db, root).Walk(nil, func(_, _ []byte) {}, nil); err == nil {
				t.Fatalf("walk passed with byte %d of record %x flipped", at, k)
			}
		}
		db[k] = enc
	}
}
