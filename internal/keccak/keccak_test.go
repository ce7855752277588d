package keccak

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
)

// Known-answer vectors for legacy Keccak-256 (Ethereum variant).
var katVectors = []struct {
	in   string
	want string
}{
	{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
	{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
	{"hello", "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"},
	{"The quick brown fox jumps over the lazy dog",
		"4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"},
	// Ethereum function selector source string.
	{"transfer(address,uint256)",
		"a9059cbb2ab09eb219583f4a59a5d0623ade346d962bcd4e46b11da047c9049b"},
}

func TestKnownAnswers(t *testing.T) {
	for _, v := range katVectors {
		got := Sum256([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.want {
			t.Errorf("Keccak256(%q) = %x, want %s", v.in, got, v.want)
		}
	}
}

func TestMultiSliceConcat(t *testing.T) {
	a := Sum256([]byte("hello "), []byte("world"))
	b := Sum256([]byte("hello world"))
	if a != b {
		t.Error("multi-slice hash differs from concatenated hash")
	}
}

func TestLongInputCrossesRate(t *testing.T) {
	// Inputs longer than the 136-byte rate exercise multi-block absorb.
	in := bytes.Repeat([]byte("a"), 1000)
	got := Sum256(in)
	// Cross-check incremental writes in awkward chunk sizes.
	h := New()
	for i := 0; i < len(in); i += 7 {
		end := i + 7
		if end > len(in) {
			end = len(in)
		}
		if _, err := h.Write(in[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if h.Sum256() != got {
		t.Error("incremental hash differs from one-shot hash")
	}
}

func TestExactRateBoundary(t *testing.T) {
	for _, n := range []int{135, 136, 137, 271, 272, 273} {
		in := bytes.Repeat([]byte{0x5a}, n)
		h := New()
		_, _ = h.Write(in)
		if h.Sum256() != Sum256(in) {
			t.Errorf("boundary size %d mismatch", n)
		}
	}
}

// Rate-boundary known answers (135/136/137 bytes of 0x5a straddle the
// one-block/two-block edge; 271/272/273 the two/three-block edge).
// Vectors generated by the pre-overhaul buffered implementation, itself
// validated against the public KATs above.
var boundaryVectors = []struct {
	n    int
	want string
}{
	{135, "03c527855334eb2e62b3b9b4d02ab76721707d3dde5fb218369640ee2edc7f3a"},
	{136, "ddc757d2caa82320e140f35833c18e8cc3b230b2b9a48def3d98461ffae81716"},
	{137, "37a14cb79c82d4b7d837a3f8ea134a324b138a5e4e3bb0814b75e52b17975b9c"},
	{271, "6913adec7e366aaa82b47e65fa86e20416f3ca3bee8d3651b4b1e61a8e533ed1"},
	{272, "55f08c872f52ae47a17f2ed98203965fe6361a0a3036291c800eaec1fefe1a7e"},
	{273, "b207ec510b45402a9292f0d5abfe1ad018fe2aedcfbb7514e81333f8b33306e1"},
}

func TestBoundaryKnownAnswers(t *testing.T) {
	for _, v := range boundaryVectors {
		in := bytes.Repeat([]byte{0x5a}, v.n)
		got := Sum256(in)
		if hex.EncodeToString(got[:]) != v.want {
			t.Errorf("Keccak256(0x5a^%d) = %x, want %s", v.n, got, v.want)
		}
	}
}

func TestSum256IntoMatchesSum256(t *testing.T) {
	var got [32]byte
	Sum256Into(&got, []byte("hello "), []byte("world"))
	if got != Sum256([]byte("hello world")) {
		t.Error("Sum256Into differs from Sum256")
	}
}

func TestResetRestoresInitialState(t *testing.T) {
	h := New()
	_, _ = h.Write([]byte("payload"))
	want := h.Sum256()
	_, _ = h.Write([]byte("more, then discarded"))
	h.Reset()
	_, _ = h.Write([]byte("payload"))
	if got := h.Sum256(); got != want {
		t.Error("Reset did not restore the hasher")
	}
}

func TestSumIsNonDestructive(t *testing.T) {
	h := New()
	_, _ = h.Write([]byte("partial"))
	first := h.Sum256()
	second := h.Sum256()
	if first != second {
		t.Error("Sum256 mutated hasher state")
	}
	_, _ = h.Write([]byte(" more"))
	if h.Sum256() != Sum256([]byte("partial more")) {
		t.Error("writing after Sum256 gives wrong digest")
	}
}

func TestReset(t *testing.T) {
	h := New()
	_, _ = h.Write([]byte("garbage"))
	h.Reset()
	_, _ = h.Write([]byte("abc"))
	want, _ := hex.DecodeString(katVectors[1].want)
	got := h.Sum256()
	if !bytes.Equal(got[:], want) {
		t.Error("Reset did not clear state")
	}
}

func TestQuickIncrementalEqualsOneShot(t *testing.T) {
	f := func(data []byte, splitRaw uint16) bool {
		split := int(splitRaw)
		if split > len(data) {
			split = len(data)
		}
		h := New()
		_, _ = h.Write(data[:split])
		_, _ = h.Write(data[split:])
		return h.Sum256() == Sum256(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNoTrivialCollisions(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		return Sum256(a) != Sum256(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSelectorPrefix(t *testing.T) {
	// The canonical ERC-20 transfer selector is 0xa9059cbb.
	got := Sum256([]byte("transfer(address,uint256)"))
	if !strings.HasPrefix(hex.EncodeToString(got[:]), "a9059cbb") {
		t.Errorf("selector prefix wrong: %x", got[:4])
	}
}

// BenchmarkKeccak64B is the HMS-mark workload: one 64-byte input (one
// permutation) per op — the acceptance row for the one-shot sponge.
func BenchmarkKeccak64B(b *testing.B) {
	in := bytes.Repeat([]byte{0x3c}, 64)
	b.ReportAllocs()
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		Sum256(in)
	}
}

// BenchmarkKeccak1KB is the multi-block absorb workload (8 permutations
// per op) — the >= 2x-over-the-loop-form acceptance row.
func BenchmarkKeccak1KB(b *testing.B) {
	in := bytes.Repeat([]byte{0x3c}, 1024)
	b.ReportAllocs()
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		Sum256(in)
	}
}

func BenchmarkSum256Small(b *testing.B) {
	in := []byte("hello world, this is a transaction payload")
	b.ReportAllocs()
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		Sum256(in)
	}
}

func BenchmarkSum256Large(b *testing.B) {
	in := bytes.Repeat([]byte{0xab}, 4096)
	b.ReportAllocs()
	b.SetBytes(int64(len(in)))
	for i := 0; i < b.N; i++ {
		Sum256(in)
	}
}
