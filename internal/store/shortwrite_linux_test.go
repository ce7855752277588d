package store

import (
	"os"
	"syscall"
	"testing"
)

// TestFailedWriteLeavesNothing has the file size limit cut a Write short
// after two whole records of its batch: the Write fails, the log is as
// long as before it, and neither a reopen nor the batch appended next
// brings any of the failed batch back or reads it as damage.
func TestFailedWriteLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("before"), []byte{1}); err != nil {
		t.Fatal(err)
	}
	failed := &Batch{}
	for i := 0; i < 4; i++ {
		failed.Put(nodeKeyN(i), make([]byte, 100))
	}
	size, _ := s.sizes()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skip(err)
	}
	limit := old
	limit.Cur = uint64(size) + uint64(failed.recs[2].off) + 10 // two whole records and a bit
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &limit); err != nil {
		t.Skip(err)
	}
	err = s.Write(failed)
	if rerr := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil {
		t.Fatal("a write past the file size limit succeeded")
	}
	if fi, err := os.Stat(s.Path()); err != nil || fi.Size() != size {
		t.Fatalf("the failed write left the log at %d bytes, was %d (%v)", fi.Size(), size, err)
	}
	if err := s.Put([]byte("after"), []byte{2}); err != nil {
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
	if rep := r.Salvage(); rep.Dirty() || rep.Records != 2 {
		t.Fatalf("reopened as %+v, want a clean replay of 2 records", rep)
	}
	keys := [][]byte{[]byte("before"), []byte("after")}
	for i := 0; i < 4; i++ {
		keys = append(keys, nodeKeyN(i))
	}
	if err := holds(r, keys, map[string][]byte{"before": {1}, "after": {2}}); err != nil {
		t.Fatal(err)
	}
}
