package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// modelKeys is the key universe the model test draws from, chosen to sit
// on the index's edges: a few hundred distinct 32-byte keys (the node
// map grows several times, and again on every replay), families of
// 32-byte keys that share their first 8 bytes, the same bytes cut to 31
// and stretched to 33 (one byte off the node map's key length, so
// indexed as strings), and the chain's short keys, the empty one
// included.
func modelKeys() [][]byte {
	hash := nodeKeyN
	var keys [][]byte
	for i := 0; i < 300; i++ {
		keys = append(keys, hash(i))
	}
	for fam := 0; fam < 4; fam++ {
		for i := 0; i < 5; i++ {
			k := hash(1000 + fam*5 + i)
			copy(k[:8], hash(fam)[:8]) // collides with a plain key, too
			keys = append(keys, k)
		}
	}
	for i := 0; i < 10; i++ {
		keys = append(keys, hash(i)[:31], append(hash(i), byte(i)))
	}
	keys = append(keys, []byte("head"), []byte{})
	for n := 0; n < 10; n++ {
		keys = append(keys, binary.BigEndian.AppendUint64([]byte{'b'}, uint64(n)))
	}
	return keys
}

func modelValue(rng *rand.Rand) []byte {
	var n int
	switch rng.Intn(10) {
	case 0:
		n = 0
	case 1:
		n = 1 + rng.Intn(3000) // a block body: a multi-byte length prefix
	default:
		n = 1 + rng.Intn(120) // a trie node
	}
	v := make([]byte, n)
	rng.Read(v)
	return v
}

type modelOp struct{ key, val []byte }

// storeModel is what the store must hold: now contains every write;
// durable is now as of the last durability point, and pending the
// records appended since, in order — a crash keeps durable plus some
// prefix of pending.
type storeModel struct {
	now, durable map[string][]byte
	pending      []modelOp
}

func cloneMap(m map[string][]byte) map[string][]byte {
	c := make(map[string][]byte, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func (m *storeModel) write(ops ...modelOp) {
	for _, op := range ops {
		m.now[string(op.key)] = op.val
	}
	m.pending = append(m.pending, ops...)
}

func (m *storeModel) synced() { m.durable, m.pending = cloneMap(m.now), nil }

// holds reports the first key on which s differs from want.
func holds(s Store, keys [][]byte, want map[string][]byte) error {
	for _, k := range keys {
		got, ok := s.Get(k)
		exp, in := want[string(k)]
		if ok != in || !bytes.Equal(got, exp) {
			return fmt.Errorf("key %x: got %x (%v), model %x (%v)", k, got, ok, exp, in)
		}
	}
	return nil
}

// TestFileStoreModel drives seeded random sequences of every operation
// the store has — single and batched writes, overwrites, reads, Sync,
// Compact (explicit and automatic), a clean Close and reopen, and a
// FaultStore crash that drops a random part of the unsynced tail followed
// by a salvaging reopen — against a map model. -short runs a slice.
func TestFileStoreModel(t *testing.T) {
	steps := 6000
	if testing.Short() {
		steps = 1000
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			runStoreModel(t, seed, steps)
		})
	}
}

func runStoreModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	keys := modelKeys()
	dir := t.TempDir()
	var fs *FileStore
	var s *FaultStore
	crashes := 0
	open := func() {
		var err error
		if fs, err = OpenFile(dir); err != nil {
			t.Fatal(err)
		}
		// Low enough that overwrites trigger automatic compaction.
		fs.CompactMinBytes = 64 << 10
		s = NewFault(fs, &FaultPolicy{Seed: seed + int64(crashes), DropUnsyncedOnCrash: true})
	}
	open()
	defer func() { _ = s.Close() }()
	m := &storeModel{now: map[string][]byte{}, durable: map[string][]byte{}}
	key := func() []byte { return keys[rng.Intn(len(keys))] }

	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 30:
			op := modelOp{key(), modelValue(rng)}
			if err := s.Put(op.key, op.val); err != nil {
				t.Fatalf("step %d: put: %v", step, err)
			}
			m.write(op)
		case r < 55:
			b := &Batch{}
			var ops []modelOp
			for n := 1 + rng.Intn(40); n > 0; n-- { // repeats a key now and then
				op := modelOp{key(), modelValue(rng)}
				b.Put(op.key, op.val)
				ops = append(ops, op)
			}
			if err := s.Write(b); err != nil {
				t.Fatalf("step %d: write: %v", step, err)
			}
			m.write(ops...)
		case r < 85:
			k := key()
			if err := holds(s, [][]byte{k}, m.now); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case r < 91:
			if err := s.Sync(); err != nil {
				t.Fatalf("step %d: sync: %v", step, err)
			}
		case r < 94:
			if _, err := fs.Compact(); err != nil {
				t.Fatalf("step %d: compact: %v", step, err)
			}
			if err := holds(s, keys, m.now); err != nil {
				t.Fatalf("step %d: after compaction: %v", step, err)
			}
		case r < 97:
			if err := s.Close(); err != nil {
				t.Fatalf("step %d: close: %v", step, err)
			}
			open()
			if rep := fs.Salvage(); rep.Dirty() {
				t.Fatalf("step %d: clean close reopened dirty: %+v", step, rep)
			}
			m.synced()
			if err := holds(s, keys, m.now); err != nil {
				t.Fatalf("step %d: after reopen: %v", step, err)
			}
		default:
			s.Crash()
			crashes++
			if err := holds(s, keys, nil); err != nil {
				t.Fatalf("step %d: crashed store still serves: %v", step, err)
			}
			open()
			// The cut fell somewhere in the unsynced tail: the log holds
			// what was durable and the first k of the records after it.
			survivors := cloneMap(m.durable)
			k := 0
			for err := holds(s, keys, survivors); err != nil; err = holds(s, keys, survivors) {
				if k == len(m.pending) {
					t.Fatalf("step %d: after crash, no prefix of the %d unsynced records matches: %v", step, k, err)
				}
				survivors[string(m.pending[k].key)] = m.pending[k].val
				k++
			}
			m.now = survivors
			m.synced()
		}
		// A compaction, explicit or automatic, is a durability point.
		if size, synced := fs.sizes(); size == synced {
			m.synced()
		}
		if fs.Len() != len(m.now) {
			t.Fatalf("step %d: %d live keys, model %d", step, fs.Len(), len(m.now))
		}
	}
	if err := holds(s, keys, m.now); err != nil {
		t.Fatal(err)
	}
	if crashes == 0 {
		t.Fatal("the sequence never crashed")
	}
}

// parseCleanLog reads a log that must be nothing but whole, verifying
// records and returns what it holds, last write winning.
func parseCleanLog(t *testing.T, path string) (map[string][]byte, int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, logMagic) {
		t.Fatalf("salvaged log lost its magic: %q", data[:min(len(data), 8)])
	}
	held, records := map[string][]byte{}, 0
	for off := len(logMagic); off < len(data); records++ {
		key, val, next, ok := readRecord(data, off)
		if !ok {
			t.Fatalf("salvaged log does not parse at offset %d of %d", off, len(data))
		}
		held[string(key)] = val
		off = next
	}
	return held, records
}

// FuzzLogReplay opens a log whose bytes after the magic are arbitrary.
// OpenFile must salvage it without panicking and leave a clean log
// behind; every record of that log is served, re-verified, by Get, and
// nothing else is; a second open finds nothing to repair and serves the
// same.
func FuzzLogReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendRecord(appendRecord(nil, []byte("k"), []byte("v")), bytes.Repeat([]byte{7}, 32), nil))
	f.Fuzz(func(t *testing.T, tail []byte) {
		if len(tail) > 4096 {
			t.Skip("salvage is quadratic in the damaged range")
		}
		dir := t.TempDir()
		path := filepath.Join(dir, FileName)
		if err := os.WriteFile(path, append(bytes.Clone(logMagic), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenFile(dir)
		if err != nil {
			t.Fatalf("salvage failed: %v", err)
		}
		want, records := parseCleanLog(t, path)
		var keys [][]byte
		for k := range want {
			keys = append(keys, []byte(k))
		}
		serves := func(s *FileStore) {
			t.Helper()
			if err := holds(s, keys, want); err != nil {
				t.Fatal(err)
			}
			if s.Len() != len(want) {
				t.Fatalf("%d live keys, log holds %d", s.Len(), len(want))
			}
		}
		serves(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = r.Close() }()
		if rep := r.Salvage(); rep.Dirty() || rep.Compacted || rep.Records != records {
			t.Fatalf("salvaged log reopened as %+v, want a clean replay of %d records", rep, records)
		}
		serves(r)
	})
}
