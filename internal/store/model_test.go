package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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
// batches appended since, in order — a crash keeps durable plus some
// prefix of pending, whole batches only.
type storeModel struct {
	now, durable map[string][]byte
	pending      [][]modelOp
}

func cloneMap(m map[string][]byte) map[string][]byte {
	c := make(map[string][]byte, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// write records one batch.
func (m *storeModel) write(ops ...modelOp) {
	for _, op := range ops {
		m.now[string(op.key)] = op.val
	}
	m.pending = append(m.pending, ops)
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
// Compact (explicit and automatic), a clean Close and reopen, and
// FaultStore crashes followed by a salvaging reopen: a kill that drops a
// random part of the unsynced tail, and a torn append of a batch — against
// a map model, which holds that a crash keeps whole batches only.
// -short runs a slice.
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
	crashes, torn := 0, 0
	open := func() {
		var err error
		if fs, err = OpenFile(dir); err != nil {
			t.Fatal(err)
		}
		// Low enough that overwrites trigger automatic compaction.
		fs.CompactMinBytes = 64 << 10
		pol := &FaultPolicy{Seed: seed + int64(crashes), DropUnsyncedOnCrash: true}
		if rng.Intn(2) == 0 {
			pol.TornAppendAtWrite = 1 + rng.Intn(30)
		}
		s = NewFault(fs, pol)
	}
	open()
	defer func() { _ = s.Close() }()
	m := &storeModel{now: map[string][]byte{}, durable: map[string][]byte{}}
	key := func() []byte { return keys[rng.Intn(len(keys))] }
	// crashed reopens the store after a crash, which kept what was
	// durable and the first k of the batches after it.
	crashed := func(step int) {
		crashes++
		if err := holds(s, keys, nil); err != nil {
			t.Fatalf("step %d: crashed store still serves: %v", step, err)
		}
		open()
		survivors := cloneMap(m.durable)
		k := 0
		for err := holds(s, keys, survivors); err != nil; err = holds(s, keys, survivors) {
			if k == len(m.pending) {
				t.Fatalf("step %d: after crash, no prefix of the %d unsynced batches matches: %v", step, k, err)
			}
			for _, op := range m.pending[k] {
				survivors[string(op.key)] = op.val
			}
			k++
		}
		m.now = survivors
		m.synced()
	}

	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 55:
			b := &Batch{}
			var ops []modelOp
			n := 1
			if r >= 30 {
				n += rng.Intn(40) // repeats a key now and then
			}
			for ; n > 0; n-- {
				op := modelOp{key(), modelValue(rng)}
				b.Put(op.key, op.val)
				ops = append(ops, op)
			}
			var err error
			if len(ops) == 1 {
				err = s.Put(ops[0].key, ops[0].val)
			} else {
				err = s.Write(b)
			}
			if errors.Is(err, ErrCrashed) { // the write was torn
				if len(ops) > 1 {
					torn++
				}
				crashed(step)
				break
			}
			if err != nil {
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
			crashed(step)
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
	if crashes == 0 || torn == 0 {
		t.Fatalf("the sequence crashed %d times, %d of them tearing a batch", crashes, torn)
	}
}

// parseCleanLog reads a log that must be nothing but whole batches of
// whole, verifying records and returns what it holds, last write
// winning.
func parseCleanLog(t *testing.T, path string) (map[string][]byte, int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, logMagic) {
		t.Fatalf("salvaged log lost its magic: %q", data[:min(len(data), 8)])
	}
	held, records, open := map[string][]byte{}, 0, false
	for off := len(logMagic); off < len(data); records++ {
		key, val, next, more, ok := readRecord(data, off)
		if !ok {
			t.Fatalf("salvaged log does not parse at offset %d of %d", off, len(data))
		}
		held[string(key)] = val
		off, open = next, more
	}
	if open {
		t.Fatal("salvaged log ends inside a batch")
	}
	return held, records
}

// logBatches splits the longest prefix of log that parses as records
// into the batches it ended and the records after them, and reports
// whether that prefix is all of log.
func logBatches(log []byte) (ended [][]modelOp, rest []modelOp, whole bool) {
	off := 0
	for off < len(log) {
		key, val, next, more, ok := readRecord(log, off)
		if !ok {
			return ended, rest, false
		}
		rest = append(rest, modelOp{key, val})
		if off = next; !more {
			ended, rest = append(ended, rest), nil
		}
	}
	return ended, rest, true
}

// FuzzLogReplay opens a log whose bytes after the magic are arbitrary.
// OpenFile must salvage it without panicking and leave a clean log of
// whole batches behind; every record of that log is served, re-verified,
// by Get, and nothing else is; a second open finds nothing to repair and
// serves the same. A batch is served whole or not at all: every key of a
// batch that ends before the first damage is served, and when there is
// no damage the store holds exactly the batches that ended, and nothing
// of the records after the last of them.
func FuzzLogReplay(f *testing.F) {
	f.Add([]byte{})
	one := func(key, val []byte) []byte { var b Batch; b.Put(key, val); return b.sealed() }
	f.Add(append(one([]byte("k"), []byte("v")), one(bytes.Repeat([]byte{7}, 32), nil)...))
	var batches []byte
	for i, n := range []int{3, 1, 4, 2} {
		b := &Batch{}
		for j := range n {
			b.Put(nodeKeyN(i*10+j%3), bytes.Repeat([]byte{byte(i)}, 1+j*40))
		}
		if i < 3 {
			batches = append(batches, b.sealed()...)
		} else {
			batches = append(batches, b.buf...) // its end never made it
		}
	}
	f.Add(batches)
	f.Add(batches[:len(batches)-60]) // torn inside the batch that never ended

	// A record a store never writes, a 128-byte key: its length takes two
	// bytes, so it reads as damage.
	long := append(binary.AppendUvarint(nil, 128), make([]byte, 129)...)
	f.Add(binary.LittleEndian.AppendUint32(long, crc32.ChecksumIEEE(long)))
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
		ended, rest, whole := logBatches(tail)
		lastWins := map[string][]byte{}
		for _, batch := range ended {
			for _, op := range batch {
				if _, ok := want[string(op.key)]; !ok {
					t.Fatalf("key %x of a batch that ended is not served", op.key)
				}
				lastWins[string(op.key)] = op.val
			}
		}
		if whole {
			if err := holds(s, append(keys, keysOf(rest)...), lastWins); err != nil {
				t.Fatalf("an undamaged log replayed as other than its ended batches: %v", err)
			}
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

func keysOf(ops []modelOp) [][]byte {
	keys := make([][]byte, len(ops))
	for i, op := range ops {
		keys[i] = op.key
	}
	return keys
}
