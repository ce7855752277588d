package keccak

import "testing"

// TestInvocationsCountsEveryDigestPath pins the counter to the digest
// finalizations of every entry point: elision tests assert hash counts
// through it, so an uncounted path would silently weaken them.
func TestInvocationsCountsEveryDigestPath(t *testing.T) {
	data := []byte("counter probe")

	count := func(f func()) uint64 {
		before := Invocations()
		f()
		return Invocations() - before
	}

	if n := count(func() { Sum256(data) }); n != 1 {
		t.Errorf("Sum256: %d invocations, want 1", n)
	}
	var out [32]byte
	if n := count(func() { Sum256Into(&out, data) }); n != 1 {
		t.Errorf("Sum256Into: %d invocations, want 1", n)
	}
	if n := count(func() { Sum256(data, data, data) }); n != 1 {
		t.Errorf("multi-slice Sum256: %d invocations, want 1 (one digest)", n)
	}

	h := New()
	h.Write(data)
	if n := count(func() { h.Sum256() }); n != 1 {
		t.Errorf("Hasher.Sum256: %d invocations, want 1", n)
	}

	// Writes absorb (permute) but do not finalize: only the digest is
	// counted, however large the input.
	h2 := New()
	if n := count(func() { h2.Write(make([]byte, 4096)) }); n != 0 {
		t.Errorf("Write: %d invocations, want 0", n)
	}
}
