package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// workload drives an identical op sequence against any store.
func workload(t *testing.T, s Store) {
	t.Helper()
	for i := 0; i < 20; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%02d", i)), bytes.Repeat([]byte{byte(i)}, i*3)); err != nil {
			t.Fatal(err)
		}
	}
	b := &Batch{}
	for i := 0; i < 10; i++ {
		b.Put([]byte(fmt.Sprintf("k%02d", i)), []byte("overwritten"))
	}
	if err := s.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestFaultZeroPassthroughBitIdentical proves a zero-policy FaultStore
// produces a byte-identical log to the bare FileStore it wraps.
func TestFaultZeroPassthroughBitIdentical(t *testing.T) {
	bareDir, faultDir := t.TempDir(), t.TempDir()
	bare, err := OpenFile(bareDir)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := OpenFile(faultDir)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := NewFault(inner, &FaultPolicy{Seed: 7})

	workload(t, bare)
	workload(t, wrapped)
	if err := bare.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wrapped.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(bareDir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(faultDir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("zero-policy FaultStore log differs: %d vs %d bytes", len(a), len(b))
	}
}

func TestFaultWriteFailureLeavesStoreClean(t *testing.T) {
	inner, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewFault(inner, &FaultPolicy{Seed: 1, FailEveryNth: 2})
	defer func() { _ = s.Close() }()
	if err := s.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("b"), []byte("2")); err != ErrInjectedFault {
		t.Fatalf("second write should fail injected: %v", err)
	}
	if _, ok := s.Get([]byte("b")); ok {
		t.Fatal("failed write partially applied")
	}
	if err := s.Put([]byte("c"), []byte("3")); err != nil {
		t.Fatalf("store unusable after injected failure: %v", err)
	}
	if v, _ := s.Get([]byte("a")); string(v) != "1" {
		t.Fatal("earlier write damaged")
	}
}

// TestFaultTornAppend crashes at write 3 with a partial append on disk;
// reopen must salvage back to the end of write 2.
func TestFaultTornAppend(t *testing.T) {
	dir := t.TempDir()
	inner, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewFault(inner, &FaultPolicy{Seed: 3, TornAppendAtWrite: 3})
	if err := s.Put([]byte("w1"), bytes.Repeat([]byte{1}, 32)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("w2"), bytes.Repeat([]byte{2}, 32)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("w3"), bytes.Repeat([]byte{3}, 32)); err != ErrCrashed {
		t.Fatalf("torn append should crash: %v", err)
	}
	if err := s.Put([]byte("w4"), nil); err != ErrCrashed {
		t.Fatalf("post-crash write: %v", err)
	}

	r, err := OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen after torn append: %v", err)
	}
	defer func() { _ = r.Close() }()
	if rep := r.Salvage(); rep.TornBytes == 0 {
		t.Fatalf("torn bytes not reported: %+v", rep)
	}
	if v, _ := r.Get([]byte("w1")); len(v) != 32 || v[0] != 1 {
		t.Fatal("durable write 1 lost")
	}
	if v, _ := r.Get([]byte("w2")); len(v) != 32 || v[0] != 2 {
		t.Fatal("durable write 2 lost")
	}
	if _, ok := r.Get([]byte("w3")); ok {
		t.Fatal("torn write survived")
	}
}

// TestFaultCrashDropsUnsyncedTail syncs after write 2, crashes after
// write 4: the reopened store must hold everything through the sync
// point, and nothing the log didn't keep.
func TestFaultCrashDropsUnsyncedTail(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		dir := t.TempDir()
		inner, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := NewFault(inner, &FaultPolicy{Seed: seed, CrashAtWrite: 4, DropUnsyncedOnCrash: true})
		for i := 1; i <= 3; i++ {
			if err := s.Put([]byte(fmt.Sprintf("w%d", i)), bytes.Repeat([]byte{byte(i)}, 24)); err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				if err := s.Sync(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := s.Put([]byte("w4"), bytes.Repeat([]byte{4}, 24)); err != ErrCrashed {
			t.Fatalf("seed %d: crash write: %v", seed, err)
		}

		r, err := OpenFile(dir)
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		// Everything synced must be there.
		for i := 1; i <= 2; i++ {
			if v, ok := r.Get([]byte(fmt.Sprintf("w%d", i))); !ok || v[0] != byte(i) {
				t.Fatalf("seed %d: synced write w%d lost", seed, i)
			}
		}
		// Whatever survives must be intact — complete records only.
		for i := 3; i <= 4; i++ {
			if v, ok := r.Get([]byte(fmt.Sprintf("w%d", i))); ok && (len(v) != 24 || v[0] != byte(i)) {
				t.Fatalf("seed %d: surviving w%d corrupt: %v", seed, i, v)
			}
		}
		_ = r.Close()
	}
}

// TestFaultBitFlip flips a random bit after write 5; reopen must
// repair it via single-bit CRC correction — every record survives
// verbatim and the salvage report says so.
func TestFaultBitFlip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		dir := t.TempDir()
		inner, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := NewFault(inner, &FaultPolicy{Seed: seed, FlipBitAtWrite: 5})
		want := make(map[string][]byte)
		for i := 1; i <= 8; i++ {
			k := fmt.Sprintf("w%d", i)
			v := bytes.Repeat([]byte{byte(i)}, 30)
			if err := s.Put([]byte(k), v); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenFile(dir)
		if err != nil {
			t.Fatalf("seed %d: reopen after bit flip: %v", seed, err)
		}
		for k, v := range want {
			got, ok := r.Get([]byte(k))
			if !ok || !bytes.Equal(got, v) {
				t.Fatalf("seed %d: %s lost or corrupt after bit flip (ok=%v)", seed, k, ok)
			}
		}
		if rep := r.Salvage(); rep.Corrected != 1 || !rep.Dirty() {
			t.Fatalf("seed %d: correction not reported: %+v", seed, rep)
		}
		_ = r.Close()
	}
}

// TestFaultMemStorePassthrough checks byte-level faults degrade to
// no-ops over a MemStore while counters still fire.
func TestFaultMemStorePassthrough(t *testing.T) {
	s := NewFault(NewMem(), &FaultPolicy{Seed: 1, CrashAtWrite: 2})
	if err := s.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("b"), []byte("2")); err != ErrCrashed {
		t.Fatalf("crash at write 2: %v", err)
	}
	if err := s.Put([]byte("c"), []byte("3")); err != ErrCrashed {
		t.Fatalf("post-crash: %v", err)
	}
}
