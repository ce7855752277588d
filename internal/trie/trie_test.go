package trie

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"sereth/internal/types"
)

func TestEmptyRootMatchesEthereum(t *testing.T) {
	// The canonical empty-trie root from the Yellow Paper.
	want := "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
	if got := hex.EncodeToString(EmptyRoot[:]); got != want {
		t.Errorf("empty root = %s, want %s", got, want)
	}
	if New().RootHash() != EmptyRoot {
		t.Error("fresh trie root != EmptyRoot")
	}
}

// Known-answer vectors cross-checked against go-ethereum's trie.
func TestKnownRoots(t *testing.T) {
	tests := []struct {
		name string
		kv   [][2]string
		want string
	}{
		{
			"single",
			[][2]string{{"do", "verb"}},
			"014f07ed95e2e028804d915e0dbd4ed451e394e1acfd29e463c11a060b2ddef7",
		},
		{
			"two",
			[][2]string{{"do", "verb"}, {"dog", "puppy"}},
			"779db3986dd4f38416bfde49750ef7b13c6ecb3e2221620bcad9267e94604d36",
		},
		{
			"four",
			[][2]string{{"do", "verb"}, {"dog", "puppy"}, {"doge", "coin"}, {"horse", "stallion"}},
			"5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := New()
			for _, kv := range tt.kv {
				tr.Update([]byte(kv[0]), []byte(kv[1]))
			}
			if got := hex.EncodeToString(tr.RootHash().Bytes()); got != tt.want {
				t.Errorf("root = %s, want %s", got, tt.want)
			}
		})
	}
}

func TestInsertionOrderIndependence(t *testing.T) {
	kvs := map[string]string{
		"do": "verb", "dog": "puppy", "doge": "coin", "horse": "stallion",
		"dodge": "car", "": "emptykey", "d": "single",
	}
	var keys []string
	for k := range kvs {
		keys = append(keys, k)
	}
	baseline := New()
	for _, k := range keys {
		baseline.Update([]byte(k), []byte(kvs[k]))
	}
	want := baseline.RootHash()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		tr := New()
		for _, k := range keys {
			tr.Update([]byte(k), []byte(kvs[k]))
		}
		if tr.RootHash() != want {
			t.Fatalf("trial %d: root differs under insertion order %v", trial, keys)
		}
	}
}

func TestGetUpdateDelete(t *testing.T) {
	tr := New()
	if got := tr.Get([]byte("missing")); got != nil {
		t.Error("missing key returned value")
	}
	tr.Update([]byte("a"), []byte("1"))
	tr.Update([]byte("ab"), []byte("2"))
	tr.Update([]byte("abc"), []byte("3"))
	if string(tr.Get([]byte("ab"))) != "2" {
		t.Error("get ab failed")
	}
	tr.Update([]byte("ab"), []byte("2x"))
	if string(tr.Get([]byte("ab"))) != "2x" {
		t.Error("overwrite failed")
	}
	tr.Delete([]byte("ab"))
	if tr.Get([]byte("ab")) != nil {
		t.Error("delete failed")
	}
	if string(tr.Get([]byte("a"))) != "1" || string(tr.Get([]byte("abc"))) != "3" {
		t.Error("siblings damaged by delete")
	}
}

func TestDeleteRestoresPriorRoot(t *testing.T) {
	// Inserting then deleting a key must return exactly the prior root
	// (canonical representation after branch collapse).
	tr := New()
	tr.Update([]byte("do"), []byte("verb"))
	tr.Update([]byte("dog"), []byte("puppy"))
	before := tr.RootHash()
	tr.Update([]byte("doge"), []byte("coin"))
	tr.Delete([]byte("doge"))
	if tr.RootHash() != before {
		t.Error("root not restored after insert+delete")
	}
	// Delete everything: back to the empty root.
	tr.Delete([]byte("do"))
	tr.Delete([]byte("dog"))
	if tr.RootHash() != EmptyRoot {
		t.Error("root not empty after deleting all keys")
	}
}

func TestEmptyValueDeletes(t *testing.T) {
	tr := New()
	tr.Update([]byte("k"), []byte("v"))
	tr.Update([]byte("k"), nil)
	if tr.RootHash() != EmptyRoot {
		t.Error("empty value did not delete")
	}
}

func TestValueAtBranchSlot(t *testing.T) {
	// "a" is a strict prefix of "ab": value lands in a branch value slot.
	tr := New()
	tr.Update([]byte("ab"), []byte("child"))
	tr.Update([]byte("a"), []byte("parent"))
	if string(tr.Get([]byte("a"))) != "parent" || string(tr.Get([]byte("ab"))) != "child" {
		t.Error("prefix keys conflict")
	}
	tr.Delete([]byte("a"))
	if tr.Get([]byte("a")) != nil || string(tr.Get([]byte("ab"))) != "child" {
		t.Error("branch value delete broken")
	}
}

func TestKeysAndLen(t *testing.T) {
	tr := New()
	keys := []string{"alpha", "beta", "gamma", "al", "be"}
	for _, k := range keys {
		tr.Update([]byte(k), []byte("v"))
	}
	if tr.Len() != len(keys) {
		t.Errorf("Len = %d want %d", tr.Len(), len(keys))
	}
	got := tr.Keys()
	if len(got) != len(keys) {
		t.Fatalf("Keys returned %d entries", len(got))
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1], got[i]) >= 0 {
			t.Error("Keys not sorted")
		}
	}
}

func TestSecureTrie(t *testing.T) {
	s := NewSecure()
	s.Update([]byte("key"), []byte("value"))
	if string(s.Get([]byte("key"))) != "value" {
		t.Error("secure get failed")
	}
	if s.Get([]byte("other")) != nil {
		t.Error("secure miss returned value")
	}
	root1 := s.RootHash()
	s.Delete([]byte("key"))
	if s.RootHash() != EmptyRoot {
		t.Error("secure delete failed")
	}
	// Same content gives same root.
	s2 := NewSecure()
	s2.Update([]byte("key"), []byte("value"))
	if s2.RootHash() != root1 {
		t.Error("secure roots not deterministic")
	}
}

// TestGetIgnoresStoredPrefix is the regression for Get answering with the
// value of a stored key that is a proper prefix of the key asked for.
func TestGetIgnoresStoredPrefix(t *testing.T) {
	tr := New()
	tr.Update([]byte{0x12, 0x34}, []byte("a"))
	tr.Update([]byte{0x12, 0x35}, []byte("b"))
	if got := tr.Get([]byte{0x12, 0x34, 0x56}); got != nil {
		t.Fatalf("Get of an absent extension of a stored key = %q, want nil", got)
	}
}

// Reference-model property test: the trie must agree with a plain map and
// roots must be history-independent. Keys are drawn so that many are
// prefixes of one another (one to four bytes over a two-letter alphabet
// per position), and every check also queries absent extensions and
// absent prefixes of the keys present.
func TestQuickAgainstMap(t *testing.T) {
	type op struct {
		Key    uint16
		Value  uint16
		Delete bool
	}
	// keyOf maps a draw onto a key of 1..4 bytes: 30 keys in all, each
	// shorter one a prefix of two of the next length.
	keyOf := func(draw uint16) string {
		k := make([]byte, 1+int(draw>>4)%4)
		for i := range k {
			k[i] = 0x12 + byte(draw>>i&1)
		}
		return string(k)
	}
	f := func(ops []op) bool {
		tr := New()
		model := map[string]string{}
		for _, o := range ops {
			k := keyOf(o.Key)
			if o.Delete {
				tr.Delete([]byte(k))
				delete(model, k)
			} else {
				v := fmt.Sprintf("v%04x", o.Value)
				tr.Update([]byte(k), []byte(v))
				model[k] = v
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		for k, v := range model {
			if string(tr.Get([]byte(k))) != v {
				return false
			}
			for _, probe := range []string{k + "\x12", k + "\x13\x12", k[:len(k)-1]} {
				if want, got := model[probe], tr.Get([]byte(probe)); string(got) != want {
					return false
				}
			}
		}
		// Rebuild from the final model: root must match (history
		// independence).
		rebuilt := New()
		for k, v := range model {
			rebuilt.Update([]byte(k), []byte(v))
		}
		return rebuilt.RootHash() == tr.RootHash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickDistinctContentsDistinctRoots(t *testing.T) {
	f := func(a, b uint32) bool {
		t1 := New()
		t1.Update([]byte(fmt.Sprint(a)), []byte("x"))
		t2 := New()
		t2.Update([]byte(fmt.Sprint(b)), []byte("x"))
		if a == b {
			return t1.RootHash() == t2.RootHash()
		}
		return t1.RootHash() != t2.RootHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIncrementalRootMatchesFresh interleaves updates, deletes and root
// computations and checks after every mutation that the memoizing trie
// agrees with a trie built from scratch over the same contents.
func TestIncrementalRootMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	contents := map[string]string{}
	for step := 0; step < 600; step++ {
		key := fmt.Sprintf("key-%d", rng.Intn(60))
		if rng.Intn(4) == 0 {
			tr.Delete([]byte(key))
			delete(contents, key)
		} else {
			val := fmt.Sprintf("val-%d", rng.Intn(1000))
			tr.Update([]byte(key), []byte(val))
			contents[key] = val
		}
		if step%7 != 0 {
			continue
		}
		fresh := New()
		for k, v := range contents {
			fresh.Update([]byte(k), []byte(v))
		}
		if got, want := tr.RootHash(), fresh.RootHash(); got != want {
			t.Fatalf("step %d: memoized root %x != fresh %x", step, got, want)
		}
	}
}

// TestCopyDivergesIndependently pins the persistence contract Copy
// relies on: mutations after a copy never leak into the other side, and
// the unchanged side keeps returning its cached root.
func TestCopyDivergesIndependently(t *testing.T) {
	tr := New()
	for j := 0; j < 50; j++ {
		tr.Update([]byte(fmt.Sprintf("key-%d", j)), []byte("value"))
	}
	rootBefore := tr.RootHash()

	cp := tr.Copy()
	cp.Update([]byte("key-3"), []byte("mutated"))
	cp.Delete([]byte("key-7"))
	if tr.RootHash() != rootBefore {
		t.Error("copy mutation changed the source root")
	}
	if cp.RootHash() == rootBefore {
		t.Error("copy root insensitive to its own mutations")
	}
	if cp.Get([]byte("key-7")) != nil || tr.Get([]byte("key-7")) == nil {
		t.Error("delete leaked across the copy boundary")
	}

	// The diverged copy must equal a fresh trie with the same contents.
	fresh := New()
	for j := 0; j < 50; j++ {
		if j == 7 {
			continue
		}
		val := "value"
		if j == 3 {
			val = "mutated"
		}
		fresh.Update([]byte(fmt.Sprintf("key-%d", j)), []byte(val))
	}
	if cp.RootHash() != fresh.RootHash() {
		t.Error("diverged copy root != fresh rebuild")
	}
}

// TestUpdateOwnership pins who owns what an update passes in. The key's
// nibbles are built on Update's stack, so every node that keeps part of
// the key keeps a clone: a second update must not rewrite the first's
// key. Update copies its value, so the caller may reuse the buffer;
// UpdateHashed keeps the slice it is handed (the state's flush hands it
// the encoding it just built). An update of an unhashed leaf writes its
// value in place: it costs the value copy and nothing for the key, and
// with the value handed over it costs nothing.
func TestUpdateOwnership(t *testing.T) {
	st, model := NewSecure(), NewSecure()
	buf := make([]byte, 40)
	keys := make([][]byte, 200)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		for j := range buf {
			buf[j] = byte(i + j)
		}
		st.Update(keys[i], buf) // the same buffer every time
		model.Update(keys[i], bytes.Clone(buf))
	}
	if st.RootHash() != model.RootHash() {
		t.Fatal("a trie fed from one reused buffer differs from one fed private copies")
	}
	for i, k := range keys {
		if got := st.Get(k); len(got) != len(buf) || got[0] != byte(i) {
			t.Fatalf("key %d reads %x", i, got)
		}
	}

	owned := []byte("handed over, never written again")
	h := types.Keccak(keys[3])
	st.UpdateHashed(h, owned)
	if got := st.Get(keys[3]); &got[0] != &owned[0] {
		t.Error("UpdateHashed copied the value it was handed")
	}
	model.Update(keys[3], owned)
	if st.RootHash() != model.RootHash() {
		t.Error("UpdateHashed and Update disagree on the root")
	}
	model.Delete(keys[3])
	st.UpdateHashed(h, nil) // empty value deletes, as in Update
	if st.RootHash() != model.RootHash() {
		t.Error("UpdateHashed with an empty value is not a delete")
	}

	h = types.Keccak(keys[5])
	st.UpdateHashed(h, bytes.Clone(buf)) // path to the leaf is unhashed from here on
	if n := testing.AllocsPerRun(100, func() { st.inner.Update(h[:], buf) }); n != 1 {
		t.Errorf("an in-place Update allocates %v times, want 1 (the value copy)", n)
	}
	if n := testing.AllocsPerRun(100, func() { st.UpdateHashed(h, owned) }); n != 0 {
		t.Errorf("an in-place UpdateHashed allocates %v times, want 0", n)
	}
}

// TestRootHashAllocatesPerCallNotPerNode counts, not times: RootHash
// encodes every node on the dirty paths into one scratch buffer it takes
// from a pool, and a node keeps only its 32-byte reference, so hashing
// allocates nothing — as few objects after 4 dirty paths as after 1024
// (a buffer per node would be about four per path).
func TestRootHashAllocatesPerCallNotPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // the GC empties pools
	const leaves = 4096
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%d", i)) }
	s := NewSecure()
	for i := 0; i < leaves; i++ {
		s.Update(key(i), []byte{1, byte(i)})
	}
	s.RootHash()
	rng := rand.New(rand.NewSource(1))
	var before, after runtime.MemStats
	for _, paths := range []int{4, 1024} {
		fewest := uint64(1 << 62)
		for round := 0; round < 5; round++ {
			for i := 0; i < paths; i++ {
				s.Update(key(rng.Intn(leaves)), []byte{2, byte(round), byte(i)})
			}
			runtime.ReadMemStats(&before)
			s.RootHash()
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		if fewest != 0 {
			t.Errorf("RootHash over %d dirty paths allocated %d objects, want 0", paths, fewest)
		}
	}
}

// TestLeafAllocations counts, not times, what a single update of a
// hashed secure trie allocates beyond the copies of the hashed nodes on
// its path, one object each whether it comes from a chunk or not (each
// sits at a depth of its own): a new key that lands in an empty branch
// slot one object (the leaf, its nibbles and its value header
// together), an overwrite of a hashed leaf one (its new leaf), and an
// overwrite of a leaf the trie made since its last hashing none (it is
// written in place).
func TestLeafAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const leaves = 50_000
	base := NewSecure()
	for i := 0; i < leaves; i++ {
		base.Update([]byte(fmt.Sprintf("key-%d", i)), []byte{1, byte(i)})
	}
	base.RootHash()
	var before, after runtime.MemStats
	mallocs := func(update func()) uint64 {
		runtime.ReadMemStats(&before)
		update()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	value := []byte{2, 2}
	for i := 0; i < 20; i++ {
		h := types.Keccak([]byte(fmt.Sprintf("key-%d", i*997)))
		s := base.Copy()
		copies, _ := hashedPath(&s.inner, h[:])
		if got := mallocs(func() { s.UpdateHashed(h, value) }); got != uint64(copies)+1 {
			t.Errorf("overwriting a hashed leaf below %d hashed nodes allocated %d objects, want %d", copies, got, copies+1)
		}
		if got := mallocs(func() { s.UpdateHashed(h, value[:1]) }); got != 0 {
			t.Errorf("overwriting an unhashed leaf allocated %d objects, want 0", got)
		}
		if !bytes.Equal(s.Get([]byte(fmt.Sprintf("key-%d", i*997))), value[:1]) {
			t.Fatalf("key %d does not read its overwrite", i*997)
		}
	}
	for i, fresh := 0, 0; fresh < 20; i++ {
		h := types.Keccak([]byte(fmt.Sprintf("new-%d", i)))
		s := base.Copy()
		copies, at := hashedPath(&s.inner, h[:])
		if at != nil {
			continue // a leaf the new key would split
		}
		if got := mallocs(func() { s.UpdateHashed(h, value) }); got != uint64(copies)+1 {
			t.Errorf("a new key in an empty slot below %d hashed nodes allocated %d objects, want %d", copies, got, copies+1)
		}
		if !bytes.Equal(s.inner.Get(h[:]), value) {
			t.Fatalf("new key %d does not read its value", i)
		}
		fresh++
	}
	if base.inner.Len() != leaves || base.Get([]byte("key-0"))[0] != 1 {
		t.Fatal("the updates of the copies reached the hashed base")
	}
}

// TestBurstAllocatesChunksNotNodes counts, not times, what a burst of N
// updates between two hashings allocates over paths the trie's previous
// generation wrote, as a block's flush does on the hot part of a state:
// one object a chunk, not one a node. The new leaves come from one run
// of chunks and the branches of each depth from one run each; a run's
// first chunk is as large as what it handed out in the generation
// before, and each next one twice the last up to maxChunk, so a run
// takes at most about log₂ of its node count in objects, and one when
// the flush repeats the one before; extensions are allocated alone. The
// hashed nodes the burst copies still encode to their references
// afterwards: none of them is written in place.
func TestBurstAllocatesChunksNotNodes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const leaves = 50_000
	key := func(i int) types.Hash { return types.Keccak([]byte(fmt.Sprintf("key-%d", i))) }
	base := NewSecure()
	for i := 0; i < leaves; i++ {
		k := key(i)
		base.UpdateHashed(k, []byte{1, byte(i)})
	}
	base.RootHash()
	var before, after runtime.MemStats
	values := [][]byte{{2, 1}, {2, 2}}
	for _, n := range []int{1, 2, 16, 64, 256, 1024} {
		keys := make([]types.Hash, n)
		for i := range keys {
			keys[i] = key(i*53 + i%4*leaves) // every fourth key is new
		}
		s := base.Copy()
		burst := func(v []byte) {
			for _, k := range keys {
				s.UpdateHashed(k, v)
			}
		}
		burst(values[0])
		s.RootHash()
		hint := s.inner // the first chunk sizes, from what burst(1) handed out
		runtime.ReadMemStats(&before)
		burst(values[1])
		runtime.ReadMemStats(&after)
		got := int(after.Mallocs - before.Mallocs)

		f := countFresh(&s.inner)
		want, kinds := chunksFor(f.leaves, hint.leaves.last)+f.alone, 1
		for d, branches := range f.fulls {
			if branches > 0 {
				want += chunksFor(branches, hint.fulls[d].last)
				kinds++
			}
		}
		t.Logf("%4d updates: %4d new nodes in %3d objects", n, f.leaves+f.alone+sum(f.fulls[:]), got)
		if got != want {
			t.Errorf("%d updates made %d leaves, %v branches by depth and %d other nodes in %d objects, want %d (one a chunk)", n, f.leaves, f.fulls, f.alone, got, want)
		}
		if n <= maxChunk {
			if bound := kinds*(bits.Len(uint(n))+1) + f.alone; got > bound {
				t.Errorf("%d updates allocated %d objects, more than %d kinds × (log₂ %d + 2)", n, got, kinds, n)
			}
		}
		for i, k := range keys {
			if got := s.inner.Get(k[:]); !bytes.Equal(got, values[1]) {
				t.Fatalf("%d updates: key %d reads %x", n, i, got)
			}
		}
		checkHashed(t, base.inner.root)
	}
	if base.inner.Len() != leaves || !bytes.Equal(base.inner.Get(key(0).Bytes()), []byte{1, 0}) {
		t.Fatal("the bursts of the copies reached the hashed base")
	}
}

// freshNodes counts what a trie made since its last hashing, by the
// chunks they come from.
type freshNodes struct {
	leaves int
	fulls  [chunkDepths]int // branches by depth
	alone  int              // extensions and deeper branches
}

func countFresh(tr *Trie) freshNodes {
	var f freshNodes
	var visit func(n node, depth int)
	visit = func(n node, depth int) {
		switch cur := n.(type) {
		case *shortNode:
			switch {
			case cur.cache.refLen != 0:
			case cur.val == nil:
				f.leaves++
			default:
				f.alone++
				visit(cur.val, depth+len(cur.key))
			}
		case *fullNode:
			if cur.cache.refLen != 0 {
				return
			}
			if depth < chunkDepths {
				f.fulls[depth]++
			} else {
				f.alone++
			}
			for _, child := range cur.children[:16] {
				visit(child, depth+1)
			}
		}
	}
	visit(tr.root, 0)
	return f
}

func sum(counts []int) (total int) {
	for _, c := range counts {
		total += c
	}
	return total
}

// chunksFor returns the number of chunks n nodes of one run take after
// a generation that handed out last.
func chunksFor(n int, last int32) int {
	if n == 0 {
		return 0
	}
	chunks := 1
	n -= min(max(int(last), firstChunk), maxChunk)
	for size := firstChunk; n > 0; size = min(2*size, maxChunk) {
		n -= size
		chunks++
	}
	return chunks
}

// checkHashed fails unless every hashed node below n encodes, from its
// children's references, to the reference it keeps.
func checkHashed(t *testing.T, n node) {
	t.Helper()
	c := cacheOf(n)
	if c == nil || c.refLen == 0 {
		return
	}
	switch cur := n.(type) {
	case *shortNode:
		checkHashed(t, cur.val)
	case *fullNode:
		for _, child := range cur.children[:16] {
			checkHashed(t, child)
		}
	}
	var again nodeCache
	again.set(appendEncoding(nil, n))
	if again.refLen != c.refLen || again.ref != c.ref {
		t.Fatalf("a hashed node was written: it encodes to %x, its reference is %x", again.ref[:again.refLen], c.ref[:c.refLen])
	}
}

// hashedPath returns the number of nodes above the slot of key's nibbles
// in a hashed trie, each of which an update of key copies, and what the
// slot holds: nil, or the leaf there.
func hashedPath(tr *Trie, key []byte) (copies int, at *shortNode) {
	k := appendNibbles(nil, key)
	for n := tr.root; ; {
		switch cur := n.(type) {
		case *fullNode:
			copies++
			n, k = cur.children[k[0]], k[1:]
		case *shortNode:
			if cur.val == nil || !bytes.HasPrefix(k, cur.key) {
				return copies, cur
			}
			copies++
			n, k = cur.val, k[len(cur.key):]
		default:
			return copies, nil
		}
	}
}

func BenchmarkInsert1k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := New()
		for j := 0; j < 1000; j++ {
			tr.Update([]byte(fmt.Sprintf("key-%d", j)), []byte("value"))
		}
	}
}

// BenchmarkSecureFlush is one kv-blocks block's flush into a storage
// trie: 250 hashed keys, most of them present, written with values the
// trie keeps, then the root, on a copy of a hashed 50 000-leaf trie that
// three such blocks wrote before. So, as on kv-blocks, the branches near
// the root replace ones the block before made and come from chunks, and
// most leaves and bottom branches are allocated alone.
func BenchmarkSecureFlush(b *testing.B) {
	const leaves, writes = 50_000, 250
	base := NewSecure()
	for i := 0; i < leaves; i++ {
		base.Update([]byte(fmt.Sprintf("key-%d", i)), []byte{1, byte(i)})
	}
	base.RootHash()
	rng := rand.New(rand.NewSource(1))
	key := func() types.Hash {
		return types.Keccak([]byte(fmt.Sprintf("key-%d", rng.Intn(leaves+leaves/10))))
	}
	for range 3 {
		next := base.Copy()
		for range writes {
			next.UpdateHashed(key(), []byte{1, 1})
		}
		next.RootHash()
		base = &next
	}
	hashed := make([]types.Hash, writes)
	for i := range hashed {
		hashed[i] = key()
	}
	values := make([]byte, 0, writes*3)
	for i := range writes {
		values = append(values, 0x82, 2, byte(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := base.Copy()
		for j, h := range hashed {
			s.UpdateHashed(h, values[3*j:3*j+3:3*j+3])
		}
		s.RootHash()
	}
}

func BenchmarkRootHash1k(b *testing.B) {
	tr := New()
	for j := 0; j < 1000; j++ {
		tr.Update([]byte(fmt.Sprintf("key-%d", j)), []byte("value"))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.RootHash()
	}
}
