package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// testBoth runs the conformance suite against every implementation,
// including a zero-policy FaultStore, which must behave identically to
// the bare store it wraps.
func testBoth(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { fn(t, NewMem()) })
	t.Run("file", func(t *testing.T) {
		s, err := OpenFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = s.Close() }()
		fn(t, s)
	})
	t.Run("fault-zero-mem", func(t *testing.T) { fn(t, NewFault(NewMem(), nil)) })
	t.Run("fault-zero-file", func(t *testing.T) {
		inner, err := OpenFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		s := NewFault(inner, &FaultPolicy{Seed: 42})
		defer func() { _ = s.Close() }()
		fn(t, s)
	})
}

func TestPutGet(t *testing.T) {
	testBoth(t, func(t *testing.T, s Store) {
		if _, ok := s.Get([]byte("missing")); ok {
			t.Fatal("missing key found")
		}
		if err := s.Put([]byte("a"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		v, ok := s.Get([]byte("a"))
		if !ok || string(v) != "1" {
			t.Fatalf("got %q ok=%v", v, ok)
		}
		// Overwrite: last write wins.
		if err := s.Put([]byte("a"), []byte("2")); err != nil {
			t.Fatal(err)
		}
		if v, _ := s.Get([]byte("a")); string(v) != "2" {
			t.Fatalf("overwrite lost: %q", v)
		}
		// Empty value is storable and distinct from absent.
		if err := s.Put([]byte("empty"), nil); err != nil {
			t.Fatal(err)
		}
		if v, ok := s.Get([]byte("empty")); !ok || len(v) != 0 {
			t.Fatalf("empty value: %q ok=%v", v, ok)
		}
	})
}

func TestBatchWrite(t *testing.T) {
	testBoth(t, func(t *testing.T, s Store) {
		b := &Batch{}
		for i := 0; i < 100; i++ {
			b.Put([]byte(fmt.Sprintf("k%03d", i)), bytes.Repeat([]byte{byte(i)}, i))
		}
		if b.Len() != 100 {
			t.Fatalf("batch len %d", b.Len())
		}
		if err := s.Write(b); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			v, ok := s.Get([]byte(fmt.Sprintf("k%03d", i)))
			if !ok || len(v) != i {
				t.Fatalf("k%03d: ok=%v len=%d", i, ok, len(v))
			}
		}
		b.Reset()
		if b.Len() != 0 || b.Size() != 0 {
			t.Fatal("reset did not clear")
		}
	})
}

func TestBatchCopiesBuffers(t *testing.T) {
	s := NewMem()
	b := &Batch{}
	key := []byte("k")
	val := []byte("v")
	b.Put(key, val)
	key[0] = 'x'
	val[0] = 'x'
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("batch aliased caller buffers: %q ok=%v", v, ok)
	}
}

func TestFileReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := &Batch{}
	b.Put([]byte("head"), []byte("one"))
	b.Put([]byte("node"), []byte("enc"))
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("head"), []byte("two")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if v, _ := r.Get([]byte("head")); string(v) != "two" {
		t.Fatalf("replay lost overwrite: %q", v)
	}
	if v, _ := r.Get([]byte("node")); string(v) != "enc" {
		t.Fatalf("replay lost node: %q", v)
	}
	if r.Len() != 2 {
		t.Fatalf("len %d", r.Len())
	}
}

func TestTornTailSalvage(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("good"), []byte("record")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a record header with a truncated value.
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{4, 't', 'o', 'r', 'n', 200}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("salvage failed: %v", err)
	}
	if v, ok := r.Get([]byte("good")); !ok || string(v) != "record" {
		t.Fatalf("good record lost: %q ok=%v", v, ok)
	}
	if _, ok := r.Get([]byte("torn")); ok {
		t.Fatal("torn record survived")
	}
	// The tail is clean again: new appends survive another reopen.
	if err := r.Put([]byte("after"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r2.Close() }()
	if v, _ := r2.Get([]byte("after")); string(v) != "ok" {
		t.Fatalf("post-salvage append lost: %q", v)
	}
}

// TestMidLogCorruptionKeepsTail is the regression for the pre-SKV2
// data loss: a corrupt *middle* record used to stop replay and
// truncate every later good record. With CRCs, salvage resyncs past
// the damage and keeps the tail.
func TestMidLogCorruptionKeepsTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for i := 0; i < 8; i++ {
		before, _ := s.sizes()
		offsets = append(offsets, before)
		if err := s.Put([]byte(fmt.Sprintf("key-%d", i)), bytes.Repeat([]byte{byte('a' + i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Smash a dozen bytes inside the value of record 3 (well past its
	// header) — beyond what single-bit repair can undo.
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	garbage := bytes.Repeat([]byte{0x5a}, 12)
	if _, err := f.WriteAt(garbage, offsets[3]+10); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("salvage failed: %v", err)
	}
	defer func() { _ = r.Close() }()
	rep := r.Salvage()
	if rep.Quarantined != 1 || rep.QuarantinedBytes == 0 {
		t.Fatalf("quarantine not reported: %+v", rep)
	}
	if !rep.Dirty() || !rep.Compacted {
		t.Fatalf("expected dirty+compacted report: %+v", rep)
	}
	if _, ok := r.Get([]byte("key-3")); ok {
		t.Fatal("corrupt record served")
	}
	for _, i := range []int{0, 1, 2, 4, 5, 6, 7} {
		v, ok := r.Get([]byte(fmt.Sprintf("key-%d", i)))
		if !ok || len(v) != 40 || v[0] != byte('a'+i) {
			t.Fatalf("record %d lost after mid-log corruption: ok=%v", i, ok)
		}
	}
	// The quarantine cleanup compacted the log: a further reopen is clean.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r2.Close() }()
	if rep := r2.Salvage(); rep.Dirty() {
		t.Fatalf("log still dirty after compaction: %+v", rep)
	}
}

// TestSingleBitCorrection: one flipped bit anywhere in a record is
// fully repaired by the CRC brute-force — no data loss at all.
func TestSingleBitCorrection(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for i := 0; i < 4; i++ {
		before, _ := s.sizes()
		offsets = append(offsets, before)
		if err := s.Put([]byte(fmt.Sprintf("key-%d", i)), bytes.Repeat([]byte{byte('a' + i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, FileName), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], offsets[1]+10); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x08
	if _, err := f.WriteAt(b[:], offsets[1]+10); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	rep := r.Salvage()
	if rep.Corrected != 1 || rep.Quarantined != 0 || !rep.Dirty() {
		t.Fatalf("correction not reported: %+v", rep)
	}
	for i := 0; i < 4; i++ {
		v, ok := r.Get([]byte(fmt.Sprintf("key-%d", i)))
		if !ok || len(v) != 40 || v[0] != byte('a'+i) {
			t.Fatalf("record %d wrong after correction: %q ok=%v", i, v, ok)
		}
	}
}

// TestCompactPreservesGets snapshots every Get before compaction and
// requires bit-identical answers after, and again after a reopen.
func TestCompactPreservesGets(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	for round := 0; round < 5; round++ {
		b := &Batch{}
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("k%02d", i)
			v := bytes.Repeat([]byte{byte(round*50 + i)}, 1+i%7)
			b.Put([]byte(k), v)
			want[k] = v
		}
		if err := s.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := s.sizes()
	stats, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesAfter >= stats.BytesBefore || stats.Records != 50 {
		t.Fatalf("compaction stats off: %+v (file before %d)", stats, before)
	}
	check := func(s Store) {
		t.Helper()
		for k, v := range want {
			got, ok := s.Get([]byte(k))
			if !ok || !bytes.Equal(got, v) {
				t.Fatalf("compaction changed %q: got %v ok=%v", k, got, ok)
			}
		}
	}
	check(s)
	// Writes after compaction land on the new handle.
	if err := s.Put([]byte("post"), []byte("compact")); err != nil {
		t.Fatal(err)
	}
	want["post"] = []byte("compact")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if rep := r.Salvage(); rep.Dirty() {
		t.Fatalf("compacted log dirty on reopen: %+v", rep)
	}
	check(r)
}

// TestCompactCrashLeftoverTmp models a crash between tmp-write and
// rename: the leftover temp file is discarded and the main log stays
// authoritative.
func TestCompactCrashLeftoverTmp(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("live"), []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A half-written compaction output (even a valid-looking one) must
	// never be adopted.
	tmp := append([]byte{}, logMagic...)
	tmp = appendRecord(tmp, []byte("live"), []byte("stale"))
	if err := os.WriteFile(filepath.Join(dir, TmpFileName), tmp, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	if rep := r.Salvage(); !rep.TmpRemoved {
		t.Fatalf("leftover tmp not reported: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, TmpFileName)); !os.IsNotExist(err) {
		t.Fatalf("leftover tmp not removed: %v", err)
	}
	if v, _ := r.Get([]byte("live")); string(v) != "data" {
		t.Fatalf("main log not authoritative: %q", v)
	}
}

// TestAutoCompactTrigger overwrites one key until dead bytes dominate
// and checks the log shrinks without losing the live value.
func TestAutoCompactTrigger(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	s.CompactMinBytes = 4096
	s.CompactRatio = 0.5
	val := bytes.Repeat([]byte{0xab}, 256)
	for i := 0; i < 100; i++ {
		if err := s.Put([]byte("hot"), val); err != nil {
			t.Fatal(err)
		}
	}
	size, _ := s.sizes()
	if size > 4096 {
		t.Fatalf("auto-compaction never fired: size %d", size)
	}
	if v, _ := s.Get([]byte("hot")); !bytes.Equal(v, val) {
		t.Fatalf("live value lost by auto-compaction")
	}
}

func TestCloseIdempotent(t *testing.T) {
	s, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := s.Put([]byte("k2"), []byte("v2")); err != ErrClosed {
		t.Fatalf("write after close: %v", err)
	}
	// The values live in the file: a closed store serves nothing.
	if v, ok := s.Get([]byte("k")); ok {
		t.Fatalf("read after close: %q", v)
	}
}

// BenchmarkFileStoreWrite measures the steady-state batch append path;
// the batch is the bytes written, so it is allocation-free.
func BenchmarkFileStoreWrite(b *testing.B) {
	s, err := OpenFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	s.CompactMinBytes = 0 // keep compaction out of the measurement
	batch := &Batch{}
	for i := 0; i < 100; i++ {
		batch.Put([]byte(fmt.Sprintf("key-%03d", i)), bytes.Repeat([]byte{byte(i)}, 64))
	}
	if err := s.Write(batch); err != nil { // index the keys
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(dir); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestGetServesOnlyWhatTheFileHolds is the contract the offset index
// makes explicit: a value is in the file and nowhere else, so Get is a
// miss once the descriptor is gone — closed or crashed — and a miss for
// a record that no longer verifies, never stale or wrong bytes.
func TestGetServesOnlyWhatTheFileHolds(t *testing.T) {
	node := bytes.Repeat([]byte{0xc3}, 32)
	other := bytes.Repeat([]byte{0xd4}, 32)
	value := bytes.Repeat([]byte{0x11}, 60)
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, s *FileStore, at loc) // after node, "head" and "late" are written and node's record is at
		misses []string
		serves []string
	}{
		{
			name:   "closed",
			damage: func(t *testing.T, s *FileStore, _ loc) { _ = s.Close() },
			misses: []string{string(node), "head", "late"},
		},
		{
			name: "crashed, unsynced tail dropped",
			damage: func(t *testing.T, s *FileStore, _ loc) {
				NewFault(s, &FaultPolicy{Seed: 3, DropUnsyncedOnCrash: true}).Crash()
			},
			misses: []string{string(node), "head", "late"},
		},
		{
			name: "unsynced tail gone from under the index",
			damage: func(t *testing.T, s *FileStore, _ loc) {
				_, synced := s.sizes()
				if err := s.rawTruncate(synced); err != nil {
					t.Fatal(err)
				}
			},
			misses: []string{"late"},
			serves: []string{string(node), "head"},
		},
		{
			name: "bit flipped in the value",
			damage: func(t *testing.T, s *FileStore, at loc) {
				if err := s.rawFlipBit(at.off+at.n-crcSize-5, 2); err != nil {
					t.Fatal(err)
				}
			},
			misses: []string{string(node)},
			serves: []string{"head", "late"},
		},
		{
			name: "bit flipped in the key",
			damage: func(t *testing.T, s *FileStore, at loc) {
				if err := s.rawFlipBit(at.off+1+20, 7); err != nil {
					t.Fatal(err)
				}
			},
			misses: []string{string(node)},
			serves: []string{"head", "late"},
		},
		{
			name: "a verifying record of another key",
			damage: func(t *testing.T, s *FileStore, at loc) {
				if _, err := s.f.WriteAt(appendRecord(nil, other, value), at.off); err != nil {
					t.Fatal(err)
				}
			},
			misses: []string{string(node), string(other)},
			serves: []string{"head", "late"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := OpenFile(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = s.Close() }()
			at := loc{off: int64(len(logMagic)), n: int64(len(appendRecord(nil, node, value)))}
			if err := s.Put(node, value); err != nil {
				t.Fatal(err)
			}
			if err := s.Put([]byte("head"), value); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := s.Put([]byte("late"), value); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, s, at)
			for _, k := range tc.misses {
				if v, ok := s.Get([]byte(k)); ok {
					t.Errorf("Get(%q) served %x", k, v)
				}
			}
			for _, k := range tc.serves {
				if v, ok := s.Get([]byte(k)); !ok || !bytes.Equal(v, value) {
					t.Errorf("Get(%q) = %x, %v", k, v, ok)
				}
			}
		})
	}
}

// TestGetRacesCompact reads while the log is rewritten under the
// readers: compaction swaps the descriptor and moves every record, so a
// Get that let go of the read lock between its lookup and its pread
// would read the wrong file. Run under -race.
func TestGetRacesCompact(t *testing.T) {
	s, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	s.CompactMinBytes = 0
	b := &Batch{}
	key := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 32-i%2) } // both maps
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 20+i) }
	for i := 0; i < 64; i++ {
		b.Put(key(i), val(i))
	}
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i = (i + 7) % 64 {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := s.Get(key(i)); !ok || !bytes.Equal(v, val(i)) {
					t.Errorf("Get(key %d) = %x, %v during compaction", i, v, ok)
					return
				}
			}
		}()
	}
	for round := 0; round < 30; round++ {
		if err := s.Write(b); err != nil { // every record now has a dead twin
			t.Fatal(err)
		}
		if stats, err := s.Compact(); err != nil || stats.Records != 64 {
			t.Fatalf("compact: %+v, %v", stats, err)
		}
	}
	close(stop)
	wg.Wait()
}

// nodeKeyN returns the i-th of a family of distinct 32-byte keys that
// look like trie node hashes.
func nodeKeyN(i int) []byte {
	h := sha256.Sum256(binary.BigEndian.AppendUint64(nil, uint64(i)))
	return h[:]
}

// fixtureOps is the write sequence testdata/parent-written.kv records,
// as the commit before the offset index ran it: four blocks of node
// batches (the next block rewrites a few of the last one's nodes), a code
// blob, a 31-byte key with an empty value, block and head records, and a
// head repoint.
func fixtureOps(t *testing.T, s Store) {
	t.Helper()
	node := nodeKeyN
	blockKey := func(n uint64) []byte { return binary.BigEndian.AppendUint64([]byte{'b'}, n) }
	for blk := uint64(0); blk < 4; blk++ {
		b := &Batch{}
		for i := 0; i < 20; i++ {
			k := node(int(blk)*15 + i)
			b.Put(k, append(bytes.Clone(k[:int(blk)+i]), byte(blk)))
		}
		if blk == 0 {
			b.Put(append([]byte{'c'}, node(1000)...), []byte("contract code"))
			b.Put(node(2000)[:31], nil)
		}
		if err := s.Write(b); err != nil {
			t.Fatal(err)
		}
		b.Reset()
		b.Put(blockKey(blk), node(3000+int(blk)))
		b.Put([]byte("head"), blockKey(blk)[1:])
		if err := s.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put([]byte("head"), blockKey(2)[1:]); err != nil {
		t.Fatal(err)
	}
}

// TestParentWrittenLog pins the format in both directions: an SKV2 log,
// written before batches were marked, opens clean with exactly the keys
// and values its writes left, restamped SKV3; the same writes produce
// testdata/written.kv byte for byte, a log as long as the SKV2 one whose
// magic a binary that knows only SKV2 refuses.
func TestParentWrittenLog(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent-written.kv"))
	if err != nil {
		t.Fatal(err)
	}
	want := NewMem()
	fixtureOps(t, want)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, FileName), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if rep := s.Salvage(); rep.Dirty() || rep.Records != 91 {
		t.Fatalf("parent-written log replayed as %+v", rep)
	}
	if s.Len() != want.Len() {
		t.Fatalf("%d live keys, the writes left %d", s.Len(), want.Len())
	}
	for k, v := range want.m {
		if got, ok := s.Get([]byte(k)); !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %x: got %x (%v), written %x", k, got, ok, v)
		}
	}

	if stamped, err := os.ReadFile(s.Path()); err != nil || !bytes.HasPrefix(stamped, logMagic) {
		t.Fatalf("the reopened SKV2 log is stamped %q (%v)", stamped[:len(skv2Magic)], err)
	}

	pinned, err := os.ReadFile(filepath.Join("testdata", "written.kv"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fixtureOps(t, w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(w.Path())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(written, pinned) {
		t.Fatalf("the same writes now produce a different log (%d bytes, pinned %d)", len(written), len(pinned))
	}
	if len(written) != len(fixture) || bytes.HasPrefix(written, skv2Magic) {
		t.Fatalf("the log is %d bytes headed %q; the SKV2 one is %d bytes and SKV2 readers must refuse it", len(written), written[:len(logMagic)], len(fixture))
	}
}

// TestBatchRefusesLongKeys: the length of a key of maxKeyLen bytes would
// need the bit that marks a batch's records.
func TestBatchRefusesLongKeys(t *testing.T) {
	var b Batch
	b.Put(make([]byte, maxKeyLen-1), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("a 64-byte key was staged")
		}
	}()
	b.Put(make([]byte, maxKeyLen), nil)
}

// TestTornBatchIsDroppedWhole cuts a log at every byte of its last
// batch: reopen serves the batches before it and nothing of it, drops
// exactly its bytes, and the next batch appended survives another reopen.
func TestTornBatchIsDroppedWhole(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, last := &Batch{}, &Batch{}
	first.Put([]byte("head"), []byte{1})
	for i := 0; i < 3; i++ {
		last.Put(nodeKeyN(i), bytes.Repeat([]byte{byte(i)}, 50))
	}
	last.Put([]byte("head"), []byte{2})
	for _, b := range []*Batch{first, last} {
		if err := s.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	end := len(log) - len(last.buf)
	for cut := end + 1; cut < len(log); cut++ {
		if err := os.WriteFile(s.Path(), log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep := r.Salvage(); rep.TornBytes != int64(cut-end) || rep.Records != 1 {
			t.Fatalf("cut at %d: %+v, want the %d bytes of the torn batch dropped", cut, rep, cut-end)
		}
		if err := holds(r, [][]byte{[]byte("head"), nodeKeyN(0), nodeKeyN(1), nodeKeyN(2)},
			map[string][]byte{"head": {1}}); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if err := r.Put(nodeKeyN(9), nil); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r, err = OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Get(nodeKeyN(9)); !ok || r.Salvage().Dirty() {
			t.Fatalf("cut at %d: the batch after the salvage reopened as %+v", cut, r.Salvage())
		}
		_ = r.Close()
	}
}

// TestCompactEndsEveryBatch compacts a log whose newest multi-record
// batch lost its last record to a later write, so the records it keeps
// are all marked as followed by more: the compacted log holds every live
// record as a batch of its own, reopens clean and serves every live key.
func TestCompactEndsEveryBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := &Batch{}
	for i := 0; i < 3; i++ {
		b.Put(nodeKeyN(i), []byte{byte(i)})
	}
	b.Put([]byte("head"), []byte{1})
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("head"), []byte{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(s.Path())
	if err != nil {
		t.Fatal(err)
	}
	for off := len(logMagic); off < len(log); {
		_, _, next, more, ok := readRecord(log, off)
		if !ok || more {
			t.Fatalf("compacted record at %d: verifies %v, marked as followed %v", off, ok, more)
		}
		off = next
	}
	r, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = r.Close() }()
	want := map[string][]byte{"head": {2}}
	keys := [][]byte{[]byte("head")}
	for i := 0; i < 3; i++ {
		want[string(nodeKeyN(i))] = []byte{byte(i)}
		keys = append(keys, nodeKeyN(i))
	}
	if rep := r.Salvage(); rep.Dirty() || rep.Records != 4 {
		t.Fatalf("compacted log reopened as %+v", rep)
	}
	if err := holds(r, keys, want); err != nil {
		t.Fatal(err)
	}
}

// TestReusedBatchStaysOneBatch writes a batch, stages more into it
// without a Reset and writes it again: the second append is one batch
// too, so a tear anywhere in it drops all of it.
func TestReusedBatchStaysOneBatch(t *testing.T) {
	b := &Batch{}
	b.Put([]byte("a"), []byte{1})
	b.sealed()
	b.Put([]byte("b"), []byte{2})
	ended, rest, whole := logBatches(b.sealed())
	if !whole || len(ended) != 1 || len(ended[0]) != 2 || len(rest) != 0 {
		t.Fatalf("a grown batch parses as %d batches and %d loose records", len(ended), len(rest))
	}
}

// TestWriteOfReusedBatchAllocatesNothing pins the commit path's copy
// count: the batch is the bytes that are written, the index holds
// offsets, and overwriting a key — in either map — reuses its entry.
func TestWriteOfReusedBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	s, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	s.CompactMinBytes = 0
	b := &Batch{}
	fill := func() {
		b.Reset()
		for i := 0; i < 100; i++ {
			b.Put(bytes.Repeat([]byte{byte(i)}, 32), bytes.Repeat([]byte{byte(i)}, 100))
		}
		b.Put([]byte("head"), []byte{0, 0, 0, 0, 0, 0, 0, 1})
	}
	fill()
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	key, val := bytes.Repeat([]byte{1}, 32), bytes.Repeat([]byte{1}, 100)
	if n := testing.AllocsPerRun(20, func() {
		b.Reset()
		for i := 0; i < 101; i++ {
			b.Put(key, val)
		}
	}); n != 0 {
		t.Errorf("refilling a reset batch allocates %v times", n)
	}
	fill()
	if n := testing.AllocsPerRun(20, func() {
		if err := s.Write(b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Write of a reused batch allocates %v times", n)
	}
}

// TestIndexCostsUnder100BytesARecord pins what a record costs in RAM
// once written: its slot in the node map and the map's slack, 70 B here
// (the parent kept the value, a key string, an entry and a map slot:
// 201 B for these records, more for every byte of a larger node).
func TestIndexCostsUnder100BytesARecord(t *testing.T) {
	s, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	const records, perBatch = 100_000, 1000
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	b := &Batch{}
	write := func(from int) {
		b.Reset()
		val := make([]byte, 110) // a branch node of a few children
		for i := from; i < from+perBatch; i++ {
			b.Put(nodeKeyN(i), val)
		}
		if err := s.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	write(0) // the batch buffer reaches its size before the baseline
	before := heap()
	for from := perBatch; from < records; from += perBatch {
		write(from)
	}
	grown := int64(heap()) - int64(before)
	t.Logf("heap grew %d B per record", grown/(records-perBatch))
	if per := grown / (records - perBatch); per > 100 {
		t.Fatalf("the heap grew %d B per record written, want <= 100", per)
	}
	if s.Len() != records {
		t.Fatalf("%d live keys, wrote %d", s.Len(), records)
	}
}

// TestOpenReadsTheLogOnce: reopen reads the file image into one buffer of
// the file's size, so opening an N-byte log allocates less than 1.25·N
// plus what building its index allocates. Growing the buffer as the file
// is read (io.ReadAll) allocates several times N.
func TestOpenReadsTheLogOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	const records = 2000
	keys := make([][]byte, records)
	b, val := &Batch{}, make([]byte, 1000)
	for i := range keys {
		keys[i] = nodeKeyN(i)
		b.Put(keys[i], val)
	}
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	index := allocated(func() {
		d := newDirectory(0, 0)
		for i, key := range keys {
			d.put(key, loc{int64(i), 1})
		}
	})
	var re *FileStore
	opened := allocated(func() { re, err = OpenFile(dir) })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if re.Len() != records {
		t.Fatalf("reopened %d records, wrote %d", re.Len(), records)
	}
	n := uint64(fi.Size())
	t.Logf("log %d B, open allocated %d B, index %d B", n, opened, index)
	if limit := n*5/4 + index; opened >= limit {
		t.Fatalf("opening a %d B log allocated %d B, want < 1.25·N + index = %d", n, opened, limit)
	}
}

// TestNodeIndexHoldsNoPointer keeps the node map out of the garbage
// collector's sight: keys and values are integers all the way down, so
// its buckets are allocated as memory the GC does not scan.
func TestNodeIndexHoldsNoPointer(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("%s is a %s", path, typ.Kind())
		}
	}
	index := reflect.TypeOf(directory{}.nodes)
	walk(index.Key(), "key")
	walk(index.Elem(), "value")
}
