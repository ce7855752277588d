package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
	// The index keeps serving reads after close.
	if v, ok := s.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("read after close: %q ok=%v", v, ok)
	}
}

// BenchmarkFileStoreWrite measures the steady-state batch append path;
// the pooled scratch buffer should make it allocation-free.
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
	if err := s.Write(batch); err != nil { // warm the scratch buffer
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
