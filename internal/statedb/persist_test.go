package statedb

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"sereth/internal/keccak"
	"sereth/internal/store"
	"sereth/internal/types"
)

func addrN(n byte) types.Address { return types.Address{19: n} }
func wordN(n uint64) types.Word  { return types.WordFromUint64(n) }
func slotN(n uint64) types.Word  { return types.WordFromUint64(n) }
func populated(t *testing.T) *StateDB {
	t.Helper()
	s := New()
	for i := byte(1); i <= 20; i++ {
		a := addrN(i)
		s.SetNonce(a, uint64(i))
		s.AddBalance(a, uint64(i)*1000)
	}
	contract := addrN(0xcc)
	s.SetCode(contract, []byte{0x60, 0x00, 0x60, 0x00, 0x55, 0x00})
	for i := uint64(0); i < 50; i++ {
		s.SetState(contract, slotN(i), wordN(i*7+1))
	}
	s.DiscardJournal()
	return s
}

func TestCommitToOpenAtRoundTrip(t *testing.T) {
	kv := store.NewMem()
	s := populated(t)
	root, n, err := s.CommitTo(kv)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("commit wrote nothing")
	}
	if root != s.Root() {
		t.Fatal("CommitTo root != Root")
	}

	re := OpenAt(kv, root)
	if re.Root() != root {
		t.Fatalf("reopened root %x != %x", re.Root(), root)
	}
	contract := addrN(0xcc)
	for i := byte(1); i <= 20; i++ {
		a := addrN(i)
		if !re.Exists(a) {
			t.Fatalf("account %d missing", i)
		}
		if re.GetNonce(a) != uint64(i) || re.GetBalance(a) != uint64(i)*1000 {
			t.Fatalf("account %d: nonce %d balance %d", i, re.GetNonce(a), re.GetBalance(a))
		}
	}
	if len(re.GetCode(contract)) == 0 {
		t.Fatal("code not recovered")
	}
	for i := uint64(0); i < 50; i++ {
		if got := re.GetState(contract, slotN(i)); got != wordN(i*7+1) {
			t.Fatalf("slot %d = %x", i, got)
		}
	}
	// Absent things stay absent.
	if re.Exists(addrN(0xee)) {
		t.Fatal("phantom account")
	}
	if got := re.GetState(contract, slotN(999)); !got.IsZero() {
		t.Fatalf("phantom slot = %x", got)
	}
}

func TestReopenedStateMutatesBitIdentical(t *testing.T) {
	kv := store.NewMem()
	s := populated(t)
	root, _, err := s.CommitTo(kv)
	if err != nil {
		t.Fatal(err)
	}

	// Apply the same mutations to the in-memory original and the
	// reopened state; every root along the way must match bit for bit.
	re := OpenAt(kv, root)
	contract := addrN(0xcc)
	mut := func(db *StateDB) {
		db.SetNonce(addrN(3), 99)
		db.AddBalance(addrN(21), 5) // fresh account
		db.SetState(contract, slotN(5), wordN(12345))
		db.SetState(contract, slotN(7), types.ZeroWord) // clear existing
		db.SetState(contract, slotN(200), wordN(1))     // fresh slot
	}
	mut(s)
	mut(re)
	if s.Root() != re.Root() {
		t.Fatalf("mutated roots diverge: %x != %x", s.Root(), re.Root())
	}
	if got := re.GetState(contract, slotN(7)); !got.IsZero() {
		t.Fatalf("cleared slot = %x", got)
	}

	// Incremental commit from the reopened side, then a third reopen.
	root2, _, err := re.CommitTo(kv)
	if err != nil {
		t.Fatal(err)
	}
	re2 := OpenAt(kv, root2)
	if re2.Root() != root2 || re2.GetNonce(addrN(3)) != 99 {
		t.Fatal("second-generation reopen broken")
	}
	if got := re2.GetState(contract, slotN(200)); got != wordN(1) {
		t.Fatalf("second-generation slot = %x", got)
	}
}

func TestRevertOnLazyState(t *testing.T) {
	kv := store.NewMem()
	s := populated(t)
	root, _, err := s.CommitTo(kv)
	if err != nil {
		t.Fatal(err)
	}

	re := OpenAt(kv, root)
	contract := addrN(0xcc)
	snap := re.Snapshot()
	// First write to a persisted slot on a freshly reopened state: the
	// journal must capture the trie value as the previous value.
	re.SetState(contract, slotN(5), wordN(0xdead))
	re.SetState(contract, slotN(6), types.ZeroWord)
	re.SetNonce(addrN(2), 1000)
	re.RevertToSnapshot(snap)
	if re.Root() != root {
		t.Fatalf("revert did not restore root: %x != %x", re.Root(), root)
	}
	if got := re.GetState(contract, slotN(5)); got != wordN(5*7+1) {
		t.Fatalf("slot 5 after revert = %x", got)
	}
	if got := re.GetState(contract, slotN(6)); got != wordN(6*7+1) {
		t.Fatalf("slot 6 after revert = %x", got)
	}
	if re.GetNonce(addrN(2)) != 2 {
		t.Fatalf("nonce after revert = %d", re.GetNonce(addrN(2)))
	}
	// The store contents were never corrupted: a fresh reopen agrees.
	if _, _, err := re.CommitTo(kv); err != nil {
		t.Fatal(err)
	}
	if fresh := OpenAt(kv, root); fresh.GetState(contract, slotN(6)) != wordN(6*7+1) {
		t.Fatal("store corrupted by revert cycle")
	}
}

func TestCommitToIsIncremental(t *testing.T) {
	kv := store.NewMem()
	s := populated(t)
	_, first, err := s.CommitTo(kv)
	if err != nil {
		t.Fatal(err)
	}
	// Idle recommit writes nothing.
	if _, n, _ := s.CommitTo(kv); n != 0 {
		t.Fatalf("idle recommit wrote %d records", n)
	}
	// One slot write commits only the dirty paths.
	s.SetState(addrN(0xcc), slotN(3), wordN(42))
	if _, n, _ := s.CommitTo(kv); n == 0 || n >= first {
		t.Fatalf("dirty commit wrote %d records (full state was %d)", n, first)
	}
}

func TestCopyOfReopenedState(t *testing.T) {
	kv := store.NewMem()
	s := populated(t)
	root, _, err := s.CommitTo(kv)
	if err != nil {
		t.Fatal(err)
	}
	re := OpenAt(kv, root)
	re.GetNonce(addrN(1)) // transient read, not materialized
	cp := re.Copy()
	// The copy still resolves through the store.
	if cp.GetNonce(addrN(9)) != 9 {
		t.Fatal("copy lost the backing store")
	}
	cp.SetNonce(addrN(9), 500)
	if re.GetNonce(addrN(9)) != 9 {
		t.Fatal("copy mutation leaked into source")
	}
	if cp.Root() == re.Root() {
		t.Fatal("diverged copies share a root")
	}
}

// TestLazyDifferential mirrors random workloads onto an in-memory state
// and a commit/reopen-cycled lazy state; roots and reads must agree at
// every step.
func TestLazyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	kv := store.NewMem()
	mem := New()
	lazy := New()
	contracts := []types.Address{addrN(0xc1), addrN(0xc2)}
	for step := 0; step < 400; step++ {
		a := addrN(byte(1 + rng.Intn(6)))
		c := contracts[rng.Intn(len(contracts))]
		switch rng.Intn(5) {
		case 0:
			mem.SetNonce(a, uint64(step))
			lazy.SetNonce(a, uint64(step))
		case 1:
			amt := uint64(rng.Intn(100))
			mem.AddBalance(a, amt)
			lazy.AddBalance(a, amt)
		case 2:
			k, v := slotN(uint64(rng.Intn(30))), wordN(uint64(rng.Intn(50)))
			mem.SetState(c, k, v)
			lazy.SetState(c, k, v)
		case 3:
			k := slotN(uint64(rng.Intn(30)))
			mem.SetState(c, k, types.ZeroWord)
			lazy.SetState(c, k, types.ZeroWord)
		case 4:
			k := slotN(uint64(rng.Intn(30)))
			if mem.GetState(c, k) != lazy.GetState(c, k) {
				t.Fatalf("step %d: read divergence", step)
			}
		}
		if mem.Root() != lazy.Root() {
			t.Fatalf("step %d: root divergence", step)
		}
		if step%29 == 0 {
			root, _, err := lazy.CommitTo(kv)
			if err != nil {
				t.Fatal(err)
			}
			lazy = OpenAt(kv, root)
		}
	}
}

func TestOpenAtEmptyRoot(t *testing.T) {
	kv := store.NewMem()
	empty := New()
	root, _, err := empty.CommitTo(kv)
	if err != nil {
		t.Fatal(err)
	}
	re := OpenAt(kv, root)
	if re.Exists(addrN(1)) {
		t.Fatal("phantom account in empty state")
	}
	re.SetNonce(addrN(1), 1)
	if re.GetNonce(addrN(1)) != 1 {
		t.Fatal("empty reopen not mutable")
	}
}

var sinkRoot types.Hash

func BenchmarkCommitToDirtyPath(b *testing.B) {
	kv := store.NewMem()
	s := New()
	contract := addrN(0xcc)
	for i := uint64(0); i < 1000; i++ {
		s.SetState(contract, slotN(i), wordN(i+1))
	}
	if _, _, err := s.CommitTo(kv); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SetState(contract, slotN(uint64(i)%1000), wordN(uint64(i)+2000))
		root, _, err := s.CommitTo(kv)
		if err != nil {
			b.Fatal(err)
		}
		sinkRoot = root
	}
}

// countingStore counts the reads a commit makes of the store it writes.
type countingStore struct {
	*store.FileStore
	gets int
}

func (c *countingStore) Get(key []byte) ([]byte, bool) {
	c.gets++
	return c.FileStore.Get(key)
}

// TestCodeBlobsDeduplicated pins that repeated commits do not re-append
// unchanged code blobs (or anything else) to a file-backed log, and that
// they learn that without reading it: a blob's presence is remembered on
// the account, on copies of it and on one reopened from the store.
func TestCodeBlobsDeduplicated(t *testing.T) {
	fs, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kv := &countingStore{FileStore: fs}
	defer func() { _ = kv.Close() }()
	s := populated(t)
	blob := bytes.Repeat([]byte{0x5b}, 4096) // outweighs any path of trie nodes
	s.SetCode(addrN(0xcc), blob)
	if _, _, err := s.CommitTo(kv); err != nil {
		t.Fatal(err)
	}
	logSize := func() int64 {
		fi, err := os.Stat(kv.Path())
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	idle := logSize()
	for i := 0; i < 3; i++ {
		if _, n, err := s.CommitTo(kv); err != nil || n != 0 {
			t.Fatalf("idle commit wrote %d records, err %v", n, err)
		}
	}
	if logSize() != idle {
		t.Fatal("idle commits grew the log")
	}
	// A nonce bump re-commits account-trie paths but not the code blob:
	// the growth must be far smaller than the code-bearing first commit.
	s.SetNonce(addrN(1), 77)
	if _, _, err := s.CommitTo(kv); err != nil {
		t.Fatal(err)
	}
	if grown := logSize() - idle; grown <= 0 || grown >= idle/2 {
		t.Fatalf("nonce-bump commit grew log by %d (initial log %d)", grown, idle)
	}
	if kv.gets != 0 {
		t.Fatalf("commits of an in-memory state read the store %d times", kv.gets)
	}
	// A block's post state is a copy: the contract's storage moves, its
	// code does not, and the commit must not ask the store about it.
	post := s.Copy()
	post.SetState(addrN(0xcc), slotN(3), wordN(99))
	before := logSize()
	if _, n, err := post.CommitTo(kv); err != nil || n == 0 {
		t.Fatalf("post-state commit wrote %d records, err %v", n, err)
	}
	if grown := logSize() - before; grown >= int64(len(blob)) {
		t.Fatalf("post-state commit grew log by %d: the code blob went with it", grown)
	}
	if kv.gets != 0 {
		t.Fatalf("post-state commit read the store %d times", kv.gets)
	}
	// A reopened account's blob came from the store; new code has not.
	root, _, _ := post.CommitTo(kv)
	re := OpenAt(kv, root)
	re.SetState(addrN(0xcc), slotN(4), wordN(100))
	re.Root() // the flush resolves the paths it rewrites; the commit reads nothing more
	resolved := kv.gets
	before = logSize()
	if _, _, err := re.CommitTo(kv); err != nil {
		t.Fatal(err)
	}
	if grown := logSize() - before; grown >= int64(len(blob)) || kv.gets != resolved {
		t.Fatalf("reopened-state commit grew log by %d and read the store %d times", grown, kv.gets-resolved)
	}
	code := []byte{0x60, 0x01, 0x60, 0x01, 0x55, 0x00}
	re.SetCode(addrN(0xcc), code)
	root, _, err = re.CommitTo(kv)
	if err != nil {
		t.Fatal(err)
	}
	if got := OpenAt(kv, root).GetCode(addrN(0xcc)); string(got) != string(code) {
		t.Fatalf("new code %x did not reach the store: reopened %x", code, got)
	}
}

// TestCommitAllocatesPerBlockNotPerNode counts, not times: a block that
// dirties 250 slots of a large contract re-encodes about a thousand trie
// nodes, and committing them to a FileStore — staging the records,
// writing them, indexing them — allocates a handful of times in all (the
// parent allocated about four times per node). The commit is the one a
// chain makes: StageTo into the batch it reuses, Write, Stored. Measured
// as the difference between the same round with and without the commit.
func TestCommitAllocatesPerBlockNotPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	kv, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = kv.Close() }()
	kv.CompactMinBytes = 0
	s := New()
	contract := addrN(0xcc)
	s.SetCode(contract, []byte{0x60, 0x00, 0x55, 0x00})
	const slots, perBlock = 5000, 250
	for i := uint64(0); i < slots; i++ {
		s.SetState(contract, slotN(i), wordN(i+1))
	}
	s.DiscardJournal()
	if _, _, err := s.CommitTo(kv); err != nil {
		t.Fatal(err)
	}
	round, nodes, b := uint64(0), 0, &store.Batch{}
	block := func(commit bool) func() {
		return func() {
			round++
			for i := uint64(0); i < perBlock; i++ {
				s.SetState(contract, slotN((round*perBlock+i)%slots), wordN(round<<32|i))
			}
			s.DiscardJournal()
			s.Root()
			if commit {
				b.Reset()
				s.StageTo(b)
				if err := kv.Write(b); err != nil {
					t.Fatal(err)
				}
				s.Stored()
				nodes = b.Len()
			}
		}
	}
	block(true)() // the batch reaches its size
	without := testing.AllocsPerRun(10, block(false))
	with := testing.AllocsPerRun(10, block(true))
	if nodes < 2*perBlock {
		t.Fatalf("a block committed %d records: the fixture dirties too little", nodes)
	}
	if extra := with - without; extra > 10 {
		t.Fatalf("committing %d nodes allocated %v times (%v with the commit, %v without)", nodes, extra, with, without)
	}
}

// TestCommitComputesNoDigest counts digests, not time: once Root has
// hashed a state, every trie node holds its reference, so CommitTo
// encodes the nodes it writes again under those references and runs no
// Keccak at all — the roots' included (it hashed each committed trie's
// root again while the root's hash lived outside its node). Walking the
// hashed state in memory runs none either.
func TestCommitComputesNoDigest(t *testing.T) {
	s := populated(t)
	s.Root()
	kv := store.NewMem()
	before := keccak.Invocations()
	if _, n, err := s.CommitTo(kv); err != nil || n == 0 {
		t.Fatalf("commit wrote %d records: %v", n, err)
	}
	if d := keccak.Invocations() - before; d != 0 {
		t.Errorf("CommitTo of a hashed state ran %d digests, want 0", d)
	}

	for i := uint64(0); i < 10; i++ {
		s.SetState(addrN(0xcc), slotN(i*5), wordN(i+100))
	}
	s.AddBalance(addrN(3), 1)
	s.DiscardJournal()
	root := s.Root()
	before = keccak.Invocations()
	if _, n, err := s.CommitTo(kv); err != nil || n == 0 {
		t.Fatalf("second commit wrote %d records: %v", n, err)
	}
	if d := keccak.Invocations() - before; d != 0 {
		t.Errorf("CommitTo of a hashed block ran %d digests, want 0", d)
	}

	before = keccak.Invocations()
	records := 0
	if err := s.Walk(func(_, _ []byte) { records++ }); err != nil {
		t.Fatal(err)
	}
	if d := keccak.Invocations() - before; d != 0 {
		t.Errorf("Walk of a hashed state ran %d digests, want 0", d)
	}
	if err := VerifyState(kv, root); err != nil || records == 0 {
		t.Fatalf("walked %d records; the commit does not verify: %v", records, err)
	}
}

var sinkWord types.Word

// BenchmarkLazyRead is the row the offset index makes slower: random
// GetState on a state reopened from a FileStore, where every node on the
// slot's path is a read of the log (the page cache, here) and not of a
// map of values held in RAM.
func BenchmarkLazyRead(b *testing.B) {
	dir := b.TempDir()
	kv, err := store.OpenFile(dir)
	if err != nil {
		b.Fatal(err)
	}
	s := New()
	contract := addrN(0xcc)
	const slots = 20_000
	for i := uint64(0); i < slots; i++ {
		s.SetState(contract, slotN(i), wordN(i+1))
	}
	root, _, err := s.CommitTo(kv)
	if err != nil {
		b.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		b.Fatal(err)
	}
	if kv, err = store.OpenFile(dir); err != nil {
		b.Fatal(err)
	}
	defer func() { _ = kv.Close() }()
	re := OpenAt(kv, root)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkWord = re.GetState(contract, slotN(uint64(rng.Intn(slots))))
	}
	if sinkWord == types.ZeroWord {
		b.Fatal("a stored slot read as zero")
	}
}
