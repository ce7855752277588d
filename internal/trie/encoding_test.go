package trie

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"testing"

	"sereth/internal/rlp"
	"sereth/internal/store"
	"sereth/internal/types"
)

// The reference encoder: the Item-tree form the trie used before nodes
// were written straight into their buffers. It reads no cache and shares
// no code with encoding — it builds a node's rlp.Item, nesting an
// embedded child as the child's own Item and replacing a child whose
// encoding reaches 32 bytes by the string of its Keccak hash.

func oracleItem(n node) rlp.Item {
	switch cur := n.(type) {
	case valueNode:
		return rlp.String(cur)
	case *shortNode:
		if v, isLeaf := cur.val.(valueNode); isLeaf {
			return rlp.List(rlp.String(oracleHexPrefix(cur.key, true)), rlp.String(v))
		}
		return rlp.List(rlp.String(oracleHexPrefix(cur.key, false)), oracleRef(cur.val))
	case *fullNode:
		items := make([]rlp.Item, 17)
		for i := 0; i < 16; i++ {
			items[i] = oracleRef(cur.children[i])
		}
		v, _ := cur.children[16].(valueNode)
		items[16] = rlp.String(v)
		return rlp.List(items...)
	default: // nil
		return rlp.String(nil)
	}
}

func oracleRef(n node) rlp.Item {
	if n == nil {
		return rlp.String(nil)
	}
	if h, ok := n.(hashNode); ok {
		return rlp.String(h[:])
	}
	it := oracleItem(n)
	enc := rlp.Encode(it)
	if len(enc) < 32 {
		return it
	}
	h := types.Keccak(enc)
	return rlp.String(h[:])
}

func oracleHexPrefix(nibbles []byte, isLeaf bool) []byte {
	flag := byte(0)
	if isLeaf {
		flag = 2
	}
	if len(nibbles)%2 == 1 {
		flag++
	}
	packed := []byte{flag}
	if len(nibbles)%2 == 0 {
		packed = append(packed, 0)
	}
	packed = append(packed, nibbles...)
	out := make([]byte, len(packed)/2)
	for i := range out {
		out[i] = packed[2*i]<<4 | packed[2*i+1]
	}
	return out
}

// checkEncodings asserts, for every node reachable from the root without
// resolving a reference, that encoding agrees with the oracle and that
// the decoded encoding encodes to itself; and that the root hash is the
// oracle's. It returns what it saw, so callers can assert the shapes
// they meant to build were built.
type seenShapes struct {
	nodes, embedded, hashedBare, branchValues, extensions, unresolved, longLists int
}

func (s *seenShapes) add(o seenShapes) {
	s.nodes += o.nodes
	s.embedded += o.embedded
	s.hashedBare += o.hashedBare
	s.branchValues += o.branchValues
	s.extensions += o.extensions
	s.unresolved += o.unresolved
	s.longLists += o.longLists
}

func checkEncodings(t testing.TB, tr *Trie) seenShapes {
	t.Helper()
	var seen seenShapes
	var visit func(n node)
	visit = func(n node) {
		switch cur := n.(type) {
		case hashNode:
			seen.unresolved++
			return
		case valueNode:
			if rlp.StringSize(cur) >= 32 {
				seen.hashedBare++
			}
			return
		case nil:
			return
		case *shortNode:
			if _, isLeaf := cur.val.(valueNode); !isLeaf {
				seen.extensions++
				visit(cur.val)
			}
		case *fullNode:
			for _, child := range cur.children[:16] {
				visit(child)
			}
			if cur.children[16] != nil {
				seen.branchValues++
			}
		}
		seen.nodes++
		got := encoding(n)
		if want := rlp.Encode(oracleItem(n)); !bytes.Equal(got, want) {
			t.Fatalf("encoding(%T) = %x, oracle %x", n, got, want)
		}
		if len(got) < 32 {
			seen.embedded++
		}
		if len(got) >= 58 { // payload >= 56: the long-list header
			seen.longLists++
		}
		decoded, err := decodeNode(got)
		if err != nil {
			t.Fatalf("decodeNode(%x): %v", got, err)
		}
		if again := encoding(decoded); !bytes.Equal(again, got) {
			t.Fatalf("decodeNode(%x) re-encodes to %x", got, again)
		}
	}
	root := tr.RootHash() // fills the caches top-down, as callers do
	visit(tr.root)
	if tr.root == nil {
		return seen
	}
	if h, ok := tr.root.(hashNode); ok {
		if types.Hash(h) != root {
			t.Fatalf("root %x of an untouched reopened trie is not its reference %x", root, h)
		}
		return seen
	}
	if want := types.Keccak(rlp.Encode(oracleItem(tr.root))); root != want {
		t.Fatalf("RootHash = %x, oracle %x", root, want)
	}
	return seen
}

// trieFromBytes drives a raw-key trie from a byte string, the fuzz
// target's input: each step takes an op byte, a key shape byte and a
// value shape byte. Keys are 0..4 bytes over a four-letter alphabet per
// position, two pairs that differ in their last nibble (so keys are
// prefixes of one another, values land in branch slots and one-nibble
// leaves become bare values); values take the lengths around the
// embedding limit. Some steps hash, some commit and
// reopen the trie from its root, leaving unresolved references under the
// nodes later steps touch.
func trieFromBytes(t testing.TB, data []byte) *Trie {
	tr := New()
	db := store.NewMem()
	lengths := []int{1, 2, 5, 20, 30, 31, 32, 33, 40, 70}
	for len(data) >= 3 {
		op, ks, vs := data[0], data[1], data[2]
		data = data[3:]
		key := make([]byte, int(ks>>4)%5)
		for i := range key {
			key[i] = 0x12 + ks>>i&1 + 0x10*(op>>(3+i)&1)
		}
		switch op % 8 {
		case 0:
			tr.Delete(key)
		case 1:
			tr.RootHash()
		case 2:
			b := &store.Batch{}
			tr.Commit(b)
			if err := db.Write(b); err != nil {
				t.Fatal(err)
			}
			if tr.root != nil {
				tr = NewFromRoot(db, tr.RootHash())
			}
		default:
			value := bytes.Repeat([]byte{vs | 1}, lengths[int(vs>>1)%len(lengths)])
			if vs&1 == 1 {
				value[0] = 0x7f &^ vs // a first byte below 0x80 too
			}
			tr.Update(key, value)
		}
	}
	return tr
}

func FuzzNodeEncoding(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0x20, 0x0d, 3, 0x21, 0x0d, 3, 0x10, 0x05})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEncodings(t, trieFromBytes(t, data))
	})
}

// TestNodeEncodingSeeded runs the fuzz target's body over seeded random
// inputs and asserts that between them they built every shape the encoder
// distinguishes.
func TestNodeEncodingSeeded(t *testing.T) {
	var total seenShapes
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*(1+rng.Intn(60)))
		rng.Read(data)
		total.add(checkEncodings(t, trieFromBytes(t, data)))
	}
	t.Logf("%+v", total)
	if total.embedded == 0 || total.hashedBare == 0 || total.branchValues == 0 ||
		total.extensions == 0 || total.unresolved == 0 || total.longLists == 0 {
		t.Fatalf("a shape was never built: %+v", total)
	}
}

// TestNodeEncodingShapes pins the encoder on hand-built tries, one per
// shape, the go-ethereum vectors of TestKnownRoots among them.
func TestNodeEncodingShapes(t *testing.T) {
	long := bytes.Repeat([]byte{0xab}, 40)
	tests := []struct {
		name string
		kv   [][2]string
		root string // known answer, where there is one
	}{
		{"single", [][2]string{{"do", "verb"}}, "014f07ed95e2e028804d915e0dbd4ed451e394e1acfd29e463c11a060b2ddef7"},
		{"two", [][2]string{{"do", "verb"}, {"dog", "puppy"}}, "779db3986dd4f38416bfde49750ef7b13c6ecb3e2221620bcad9267e94604d36"},
		{"four", [][2]string{{"do", "verb"}, {"dog", "puppy"}, {"doge", "coin"}, {"horse", "stallion"}}, "5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84"},
		{"empty key", [][2]string{{"", "root value"}}, ""},
		{"value at a branch slot", [][2]string{{"a", "parent"}, {"ab", "child"}, {"ac", "other"}}, ""},
		{"bare values, embedded", [][2]string{{"\x12\x34", "a"}, {"\x12\x35", "b"}}, ""},
		{"bare values, hashed", [][2]string{{"\x12\x34", string(long)}, {"\x12\x35", string(long[:31])}, {"\x12\x36", string(long[:30])}}, ""},
		{"single byte values", [][2]string{{"\x12\x34", "\x05"}, {"\x12\x35", "\x7f"}, {"\x12\x36", "\x80"}, {"\x12", "\x01"}}, ""},
		{"long leaf", [][2]string{{"key", string(bytes.Repeat(long, 3))}}, ""},
		{"extension over a branch", [][2]string{{"prefix-a", string(long)}, {"prefix-b", string(long)}, {"other", "x"}}, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := New()
			for _, kv := range tt.kv {
				tr.Update([]byte(kv[0]), []byte(kv[1]))
			}
			checkEncodings(t, tr)
			if got := hex.EncodeToString(tr.RootHash().Bytes()); tt.root != "" && got != tt.root {
				t.Errorf("root = %s, want %s", got, tt.root)
			}
		})
	}
}

// TestNodeEncodingSecure runs the check over the shape state uses: 32-byte
// hashed keys, word-sized values, a few thousand leaves under full
// branches — and a second time on the reopened trie after more writes.
func TestNodeEncodingSecure(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSecure()
	for i := 0; i < 2000; i++ {
		var k [32]byte
		rng.Read(k[:])
		s.Update(k[:], rlp.AppendString(nil, k[:1+rng.Intn(32)]))
	}
	checkEncodings(t, &s.inner)
	db := store.NewMem()
	b := &store.Batch{}
	s.Commit(b)
	if err := db.Write(b); err != nil {
		t.Fatal(err)
	}
	re := NewSecureFromRoot(db, s.RootHash())
	for i := 0; i < 50; i++ {
		var k [32]byte
		rng.Read(k[:])
		re.Update(k[:], []byte{byte(i) + 1})
	}
	if seen := checkEncodings(t, &re.inner); seen.unresolved == 0 {
		t.Fatal("the reopened trie kept no unresolved reference")
	}
}
