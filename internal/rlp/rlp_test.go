package rlp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// Canonical vectors from the Ethereum RLP specification.
func TestSpecVectors(t *testing.T) {
	tests := []struct {
		name string
		item Item
		want []byte
	}{
		{"empty-string", String(nil), []byte{0x80}},
		{"dog", String([]byte("dog")), []byte{0x83, 'd', 'o', 'g'}},
		{"single-byte", String([]byte{0x0f}), []byte{0x0f}},
		{"byte-0x80", String([]byte{0x80}), []byte{0x81, 0x80}},
		{"zero-uint", Uint(0), []byte{0x80}},
		{"uint-15", Uint(15), []byte{0x0f}},
		{"uint-1024", Uint(1024), []byte{0x82, 0x04, 0x00}},
		{"empty-list", List(), []byte{0xc0}},
		{"cat-dog", List(String([]byte("cat")), String([]byte("dog"))),
			[]byte{0xc8, 0x83, 'c', 'a', 't', 0x83, 'd', 'o', 'g'}},
		{"set-theoretic", List(List(), List(List()), List(List(), List(List()))),
			[]byte{0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0}},
		{"lorem", String([]byte("Lorem ipsum dolor sit amet, consectetur adipisicing elit")),
			append([]byte{0xb8, 0x38}, []byte("Lorem ipsum dolor sit amet, consectetur adipisicing elit")...)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Encode(tt.item)
			if !bytes.Equal(got, tt.want) {
				t.Errorf("Encode = %x, want %x", got, tt.want)
			}
			back, err := Decode(got)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !bytes.Equal(Encode(back), tt.want) {
				t.Error("re-encode after decode differs")
			}
		})
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"truncated-string", []byte{0x83, 'd', 'o'}, ErrLengthTooBig},
		{"trailing", []byte{0x0f, 0x0f}, ErrTrailing},
		{"non-canonical-single", []byte{0x81, 0x05}, ErrNonCanonical},
		{"non-canonical-long-len", []byte{0xb8, 0x01, 0xff}, ErrNonCanonical},
		{"long-len-leading-zero", []byte{0xb9, 0x00, 0x38}, ErrNonCanonical},
		{"truncated-list", []byte{0xc8, 0x83, 'c', 'a'}, ErrLengthTooBig},
		{"length-overflow", []byte{0xbb, 0xff, 0xff, 0xff, 0xff}, ErrLengthTooBig},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Decode(tt.in)
			if !errors.Is(err, tt.want) {
				t.Errorf("Decode(%x) err = %v, want %v", tt.in, err, tt.want)
			}
		})
	}
}

func TestUintRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, 1 << 20, 1<<63 + 5, ^uint64(0)} {
		it, err := Decode(Encode(Uint(v)))
		if err != nil {
			t.Fatalf("decode %d: %v", v, err)
		}
		got, err := it.AsUint()
		if err != nil {
			t.Fatalf("AsUint %d: %v", v, err)
		}
		if got != v {
			t.Errorf("round trip %d -> %d", v, got)
		}
	}
}

func TestAsUintErrors(t *testing.T) {
	if _, err := List().AsUint(); !errors.Is(err, ErrExpectedKind) {
		t.Error("AsUint on list should fail")
	}
	nine := Item{kind: KindString, str: bytes.Repeat([]byte{1}, 9)}
	if _, err := nine.AsUint(); !errors.Is(err, ErrValueTooLarge) {
		t.Error("9-byte integer should be too large")
	}
	padded := Item{kind: KindString, str: []byte{0x00, 0x01}}
	if _, err := padded.AsUint(); !errors.Is(err, ErrNonCanonical) {
		t.Error("leading-zero integer should be non-canonical")
	}
}

func TestKindAccessors(t *testing.T) {
	if _, err := String(nil).Items(); !errors.Is(err, ErrExpectedKind) {
		t.Error("Items on string should fail")
	}
	if _, err := List().Bytes(); !errors.Is(err, ErrExpectedKind) {
		t.Error("Bytes on list should fail")
	}
}

func TestLongString(t *testing.T) {
	// > 55 bytes needs the long-string form; > 255 needs 2 length bytes.
	for _, n := range []int{55, 56, 57, 255, 256, 300, 70000} {
		payload := bytes.Repeat([]byte{0xaa}, n)
		enc := Encode(String(payload))
		it, err := Decode(enc)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, _ := it.Bytes()
		if !bytes.Equal(got, payload) {
			t.Errorf("n=%d round trip failed", n)
		}
	}
}

func TestDeepNesting(t *testing.T) {
	it := String([]byte("x"))
	for i := 0; i < 100; i++ {
		it = List(it)
	}
	back, err := Decode(Encode(it))
	if err != nil {
		t.Fatal(err)
	}
	// Unwrap 100 levels.
	for i := 0; i < 100; i++ {
		children, err := back.Items()
		if err != nil || len(children) != 1 {
			t.Fatalf("level %d: %v", i, err)
		}
		back = children[0]
	}
	b, _ := back.Bytes()
	if string(b) != "x" {
		t.Error("nested payload corrupted")
	}
}

// randomItem builds a random item tree for property testing.
func randomItem(rng *rand.Rand, depth int) Item {
	if depth <= 0 || rng.Intn(2) == 0 {
		n := rng.Intn(80)
		b := make([]byte, n)
		rng.Read(b)
		return String(b)
	}
	n := rng.Intn(5)
	children := make([]Item, n)
	for i := range children {
		children[i] = randomItem(rng, depth-1)
	}
	return List(children...)
}

func itemsEqual(a, b Item) bool {
	if a.kind != b.kind {
		return false
	}
	if a.kind == KindString {
		return bytes.Equal(a.str, b.str)
	}
	if len(a.list) != len(b.list) {
		return false
	}
	for i := range a.list {
		if !itemsEqual(a.list[i], b.list[i]) {
			return false
		}
	}
	return true
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		it := randomItem(rng, 4)
		back, err := Decode(Encode(it))
		return err == nil && itemsEqual(it, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = Decode(data) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(payload []byte) bool {
		it, err := Decode(Encode(String(payload)))
		if err != nil {
			return false
		}
		got, err := it.Bytes()
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeTxShaped(b *testing.B) {
	item := List(Uint(7), Uint(20_000_000_000), Uint(21000),
		String(bytes.Repeat([]byte{0xaa}, 20)), Uint(1),
		String(bytes.Repeat([]byte{0xbb}, 100)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(item)
	}
}

func BenchmarkDecodeTxShaped(b *testing.B) {
	enc := Encode(List(Uint(7), Uint(20_000_000_000), Uint(21000),
		String(bytes.Repeat([]byte{0xaa}, 20)), Uint(1),
		String(bytes.Repeat([]byte{0xbb}, 100))))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendHelpersMatchEncode pins the flat append path byte-identical
// to the Item-tree encoder it bypasses.
func TestAppendHelpersMatchEncode(t *testing.T) {
	strs := [][]byte{nil, {}, {0x00}, {0x7f}, {0x80}, {1, 2, 3}, make([]byte, 55), make([]byte, 56), make([]byte, 300)}
	for _, s := range strs {
		if got, want := AppendString(nil, s), Encode(String(s)); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%d bytes) = %x, Encode = %x", len(s), got, want)
		}
	}
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 0xff, 0x100, 1 << 20, 1<<64 - 1} {
		if got, want := AppendUint(nil, v), Encode(Uint(v)); !bytes.Equal(got, want) {
			t.Errorf("AppendUint(%d) = %x, Encode = %x", v, got, want)
		}
	}
	// Lists: children payload concatenation + header, short and long.
	for _, n := range []int{0, 1, 3, 20, 100} {
		var payload []byte
		items := make([]Item, n)
		for i := 0; i < n; i++ {
			b := []byte{byte(i), byte(i + 1)}
			payload = AppendString(payload, b)
			items[i] = String(b)
		}
		if got, want := AppendList(nil, payload), Encode(List(items...)); !bytes.Equal(got, want) {
			t.Errorf("AppendList(%d children) = %x, Encode = %x", n, got, want)
		}
	}
}

// TestSizeHelpersMatchAppend pins StringSize, UintSize, ListSize and
// AppendListHeader to what the append path writes, across the 1-, 2- and
// 3-byte header boundaries and every integer width.
func TestSizeHelpersMatchAppend(t *testing.T) {
	for _, n := range []int{0, 1, 2, 54, 55, 56, 57, 255, 256, 257, 65535, 65536, 70000} {
		s := bytes.Repeat([]byte{0x9c}, n)
		if got, want := StringSize(s), len(AppendString(nil, s)); got != want {
			t.Errorf("StringSize(%d bytes) = %d, AppendString writes %d", n, got, want)
		}
		list := AppendList(nil, s)
		if got := ListSize(n); got != len(list) {
			t.Errorf("ListSize(%d) = %d, AppendList writes %d", n, got, len(list))
		}
		if got := append(AppendListHeader(nil, n), s...); !bytes.Equal(got, list) {
			t.Errorf("AppendListHeader(%d) + payload differs from AppendList", n)
		}
	}
	for _, b := range []byte{0x00, 0x01, 0x7f, 0x80, 0xff} {
		if got, want := StringSize([]byte{b}), len(AppendString(nil, []byte{b})); got != want {
			t.Errorf("StringSize({%#x}) = %d, AppendString writes %d", b, got, want)
		}
	}
	for _, v := range []uint64{0, 1, 0x7f, 0x80, 0xff, 0x100, 0xffff, 1 << 16, 1<<56 - 1, 1 << 56, 1<<64 - 1} {
		if got, want := UintSize(v), len(AppendUint(nil, v)); got != want {
			t.Errorf("UintSize(%#x) = %d, AppendUint writes %d", v, got, want)
		}
	}
}
