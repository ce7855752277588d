package chain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// persistRig builds a store-backed chain with a few blocks of real
// contract traffic on it: each block one set, chained on the last, that
// succeeds.
func persistRig(t *testing.T, kv store.Store, blocks int) (*Chain, *wallet.Key) {
	t.Helper()
	reg := wallet.NewRegistry()
	owner := wallet.NewKey("persist-owner")
	reg.Register(owner)
	cfg := DefaultConfig()
	cfg.Registry = reg
	cfg.Store = kv
	c := New(cfg, genesisWithContract())
	for i := 0; i < blocks; i++ {
		setOnHead(t, c, owner, uint64(i), uint64(10+i))
	}
	return c, owner
}

// headMark is the contract's committed mark at c's head: the prev a set
// on top of it must carry, since the contract compares marks, not values.
func headMark(c *Chain) types.Word {
	var mark types.Word
	c.ReadState(func(st *statedb.StateDB) { mark = st.GetState(contractAddr, types.WordFromUint64(asm.SlotMark)) })
	return mark
}

// nextSet is owner's set of value on c's head mark, as a one-set body.
func nextSet(c *Chain, owner *wallet.Key, nonce, value uint64) []*types.Transaction {
	return []*types.Transaction{setTxFor(owner, nonce, headMark(c), value, types.FlagHead)}
}

// setOnHead builds the block of owner's next set on c, inserts it and
// requires that the set succeeded.
func setOnHead(t *testing.T, c *Chain, owner *wallet.Key, nonce, value uint64) *types.Block {
	t.Helper()
	blk := buildBlock(t, c, nextSet(c, owner, nonce, value))
	insertSucceeding(t, c, blk)
	return blk
}

// insertSucceeding inserts blk into c and fails the test unless every
// transaction in it succeeded: a set whose prev is not the committed mark
// is included, but fails and leaves the contract as it was.
func insertSucceeding(t *testing.T, c *Chain, blk *types.Block) {
	t.Helper()
	receipts, err := c.InsertBlock(blk)
	if err != nil {
		t.Fatalf("insert block %d: %v", blk.Number(), err)
	}
	for i, r := range receipts {
		if r.Status != types.StatusSucceeded {
			t.Fatalf("block %d: transaction %d failed", blk.Number(), i)
		}
	}
}

func TestOpenRecoversHeadWithoutReplay(t *testing.T) {
	dir := t.TempDir()
	kv, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	c, owner := persistRig(t, kv, 3)
	wantHead := c.Head()
	var wantRoot types.Hash
	c.ReadState(func(st *statedb.StateDB) { wantRoot = st.Root() })
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulated restart: fresh store handle, recovered chain.
	kv2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = kv2.Close() }()
	if !HasHead(kv2) {
		t.Fatal("HasHead false on a written store")
	}
	cfg := DefaultConfig()
	cfg.Registry = c.Config().Registry
	cfg.Store = kv2
	re, err := Open(cfg, kv2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if re.Height() != 3 || re.Head().Hash() != wantHead.Hash() {
		t.Fatalf("recovered head %d/%s, want %d/%s",
			re.Height(), re.Head().Hash().Hex(), c.Height(), wantHead.Hash().Hex())
	}
	// Head state root recovered lazily — no replay ran, yet the root and
	// a contract read match the pre-restart chain.
	var gotRoot types.Hash
	re.ReadState(func(st *statedb.StateDB) { gotRoot = st.Root() })
	if gotRoot != wantRoot {
		t.Fatalf("recovered root %s != %s", gotRoot.Hex(), wantRoot.Hex())
	}
	if re.Base() != 0 || re.BlockByNumber(0) == nil {
		t.Fatal("full history not recovered")
	}

	// The recovered chain keeps working: build and insert the next block.
	setOnHead(t, re, owner, 3, 99)
	if re.Height() != 4 {
		t.Fatal("recovered chain did not advance")
	}
}

// reorgRig is a store-backed chain that grew two blocks of its own and
// then switched to a four-block branch from genesis; every block sets
// the contract's value, so no two blocks share a state.
func reorgRig(t *testing.T) (Config, *store.MemStore, *Chain) {
	t.Helper()
	kv := store.NewMem()
	reg := wallet.NewRegistry()
	owner := wallet.NewKey("fork-owner")
	reg.Register(owner)
	cfg := DefaultConfig()
	cfg.Registry = reg
	cfg.Store = kv
	local := New(cfg, genesisWithContract())
	remoteCfg := DefaultConfig()
	remoteCfg.Registry = reg
	remote := New(remoteCfg, genesisWithContract())

	grow := func(c *Chain, n int, firstValue uint64) []*types.Block {
		var out []*types.Block
		for i := 0; i < n; i++ {
			out = append(out, setOnHead(t, c, owner, uint64(i), firstValue+uint64(i)))
		}
		return out
	}
	grow(local, 2, 5)
	remoteBlocks := grow(remote, 4, 50)
	if _, err := local.ImportFork(remoteBlocks); err != nil {
		t.Fatalf("ImportFork: %v", err)
	}
	return cfg, kv, local
}

func TestOpenAfterReorgFollowsCanonicalBranch(t *testing.T) {
	cfg, kv, local := reorgRig(t)
	re, err := Open(cfg, kv)
	if err != nil {
		t.Fatalf("Open after reorg: %v", err)
	}
	if re.Head().Hash() != local.Head().Hash() {
		t.Fatal("recovery picked the orphaned branch")
	}
	// The walk down from head must have followed the adopted branch's
	// parent hashes even where orphaned records linger at low numbers.
	for n := uint64(re.Base()); n <= re.Height(); n++ {
		if re.BlockByNumber(n).Hash() != local.BlockByNumber(n).Hash() {
			t.Fatalf("block %d diverges from canonical branch", n)
		}
	}
}

// TestOpenDistrustsAHeadWithoutState: a clean log whose head record
// names a block the store holds no state for — the body and head pointer
// written, the state not — must not be trusted. Open walks down to the
// deepest block whose state verifies, here the block below it, and
// repoints the head there. (A chain never writes such a log now: a
// block's state goes in the batch of its body and head record. One
// written before a batch survived a crash whole can hold it, so the log
// is built here directly.)
func TestOpenDistrustsAHeadWithoutState(t *testing.T) {
	kv := store.NewMem()
	local, owner := persistRig(t, kv, 2)
	stateless := buildBlock(t, local, nextSet(local, owner, 2, 99))
	var b store.Batch
	stageHead(&b, 0, 0, stateless)
	if err := kv.Write(&b); err != nil {
		t.Fatal(err)
	}
	re, err := Open(local.Config(), kv)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if re.Height() != 2 || re.Head().Hash() != local.Head().Hash() {
		t.Fatalf("recovered head %d, want 2: block 3 has no state", re.Height())
	}
	if err := statedb.VerifyState(kv, re.Head().Header.StateRoot); err != nil {
		t.Fatalf("recovered head state: %v", err)
	}
	if head, _ := kv.Get(headKey); binary.BigEndian.Uint64(head) != 2 {
		t.Fatalf("head record still names block %d", binary.BigEndian.Uint64(head))
	}
}

func TestOpenEmptyStore(t *testing.T) {
	kv := store.NewMem()
	if HasHead(kv) {
		t.Fatal("HasHead true on empty store")
	}
	if _, err := Open(DefaultConfig(), kv); !errors.Is(err, ErrNoHead) {
		t.Fatalf("Open on empty store: %v", err)
	}
}

// exportOf exports c's head into a fresh in-memory store.
func exportOf(t *testing.T, c *Chain) *store.MemStore {
	t.Helper()
	snap := store.NewMem()
	if err := c.Export(snap); err != nil {
		t.Fatalf("Export: %v", err)
	}
	return snap
}

// stateRecords returns the records kv holds for the state at root: the
// walk of that state through kv, which fails the test on a hole.
func stateRecords(t *testing.T, kv store.Store, root types.Hash) map[string][]byte {
	t.Helper()
	recs := map[string][]byte{}
	err := statedb.OpenAt(kv, root).Walk(nil, func(k, v []byte) { recs[string(k)] = bytes.Clone(v) })
	if err != nil {
		t.Fatalf("state %s does not verify: %v", root.Hex(), err)
	}
	return recs
}

// joinerCfg is the config of a peer that shares origin's registry and
// nothing else; kv, when non-nil, is its own store.
func joinerCfg(origin *Chain, kv store.Store) Config {
	cfg := DefaultConfig()
	cfg.Registry = origin.Config().Registry
	cfg.Store = kv
	return cfg
}

// TestSnapshotBootstrapConverges: the same three-block history held by
// a chain built in memory, by a store-backed chain and by a chain
// reopened from that store exports the same records — the head state's,
// as CommitTo writes them into an empty store, plus the head block and
// the head pointer, and none of the nodes blocks 0..2 superseded. Open
// on the export lands on the same head and root with the state
// readable, and the joiner then follows the origin block for block.
func TestSnapshotBootstrapConverges(t *testing.T) {
	kv := store.NewMem()
	c, owner := persistRig(t, kv, 3)
	mem := New(joinerCfg(c, nil), genesisWithContract())
	for n := uint64(1); n <= 3; n++ {
		if _, err := mem.InsertBlock(c.BlockByNumber(n)); err != nil {
			t.Fatalf("memory twin, block %d: %v", n, err)
		}
	}
	re, err := Open(c.Config(), kv)
	if err != nil {
		t.Fatal(err)
	}
	root := c.Head().Header.StateRoot

	snap := exportOf(t, mem)
	want := stateRecords(t, snap, root)
	if snap.Len() != len(want)+2 {
		t.Fatalf("export holds %d records: the state's %d, the head block, the head pointer and %d more",
			snap.Len(), len(want), snap.Len()-len(want)-2)
	}
	if kv.Len() <= snap.Len() {
		t.Fatalf("fixture datadir (%d records) holds no superseded node over the export's %d", kv.Len(), snap.Len())
	}
	for name, from := range map[string]*Chain{"store-backed": c, "reopened": re} {
		other := exportOf(t, from)
		if got := stateRecords(t, other, root); other.Len() != snap.Len() || !maps.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("%s chain exported %d records (%d of state), the memory-built one %d (%d)",
				name, other.Len(), len(got), snap.Len(), len(want))
		}
	}
	// What CommitTo writes for that state into an empty store is exactly
	// those records.
	fresh := store.NewMem()
	if _, _, err := mem.State().CommitTo(fresh); err != nil {
		t.Fatal(err)
	}
	if got := stateRecords(t, fresh, root); !maps.EqualFunc(got, want, bytes.Equal) || fresh.Len() != len(want) {
		t.Fatalf("CommitTo wrote %d records, %d referenced; the export carries %d", fresh.Len(), len(got), len(want))
	}

	boot, err := Open(joinerCfg(c, nil), snap)
	if err != nil {
		t.Fatalf("Open on an export: %v", err)
	}
	if boot.Head().Hash() != c.Head().Hash() {
		t.Fatal("bootstrapped head differs")
	}
	if boot.Base() != 3 || boot.BlockByNumber(0) != nil {
		t.Fatalf("base = %d; history below head should be absent", boot.Base())
	}
	boot.ReadState(func(got *statedb.StateDB) {
		c.ReadState(func(want *statedb.StateDB) {
			if got.Root() != want.Root() {
				t.Fatalf("bootstrapped root %s != %s", got.Root().Hex(), want.Root().Hex())
			}
			for _, a := range mem.State().Accounts() {
				if got.GetNonce(a) != want.GetNonce(a) || got.GetBalance(a) != want.GetBalance(a) ||
					!bytes.Equal(got.GetCode(a), want.GetCode(a)) {
					t.Fatalf("account %s differs after bootstrap", a.Hex())
				}
			}
			for slot := uint64(0); slot < 8; slot++ {
				k := types.WordFromUint64(slot)
				if got.GetState(contractAddr, k) != want.GetState(contractAddr, k) {
					t.Fatalf("contract slot %d differs after bootstrap", slot)
				}
			}
		})
	})

	// Both peers apply the same next block and stay converged.
	blk := setOnHead(t, c, owner, 3, 50)
	insertSucceeding(t, boot, blk)
	if boot.Head().Hash() != c.Head().Hash() {
		t.Fatal("peers diverged after bootstrap")
	}
	if snap.Len() != len(want)+2 {
		t.Fatal("a joiner without a store wrote into the snapshot it reads through")
	}

	// An export is a datadir: a chain configured to persist into it
	// restarts on it, trusted like any store of its own, and keeps it.
	run, err := Open(joinerCfg(c, snap), snap)
	if err != nil || run.Height() != 3 {
		t.Fatalf("restart on an export: %v", err)
	}
	if _, err := run.InsertBlock(blk); err != nil {
		t.Fatalf("insert on an export used as a datadir: %v", err)
	}
	if err := statedb.VerifyState(snap, blk.Header.StateRoot); err != nil {
		t.Fatalf("export used as a datadir, after a block: %v", err)
	}
}

// TestOpenSnapshotRejectsTamperedState: a snapshot with one state
// record altered or missing, a store with no head in it and a head
// pointer over garbage are all rejected, with nothing written to the
// joiner's store.
func TestOpenSnapshotRejectsTamperedState(t *testing.T) {
	c, _ := persistRig(t, store.NewMem(), 2)
	snap := exportOf(t, c)
	reject := func(what string, src store.Store, want error) {
		t.Helper()
		kv := store.NewMem()
		if _, err := Open(joinerCfg(c, kv), src); err == nil || (want != nil && !errors.Is(err, want)) {
			t.Fatalf("%s: Open returned %v", what, err)
		}
		if kv.Len() != 0 {
			t.Fatalf("%s: rejected, but %d records reached the joiner's store", what, kv.Len())
		}
	}
	recs := stateRecords(t, snap, c.Head().Header.StateRoot)
	for k, v := range recs {
		tampered, short := exportOf(t, c), store.NewMem()
		bad := bytes.Clone(v)
		bad[len(bad)-1] ^= 0xff
		_ = tampered.Put([]byte(k), bad)
		reject("altered record", tampered, nil)
		for k2, v2 := range recs {
			if k2 != k {
				_ = short.Put([]byte(k2), v2)
			}
		}
		_ = short.Put(blockKey(2), c.Head().EncodeRLP())
		_ = short.Put(headKey, []byte{0, 0, 0, 0, 0, 0, 0, 2})
		reject("missing record", short, nil)
	}
	reject("empty store", store.NewMem(), ErrNoHead)
	garbage := store.NewMem()
	_ = garbage.Put(headKey, []byte{0, 0, 0, 0, 0, 0, 0, 2})
	_ = garbage.Put(blockKey(2), []byte("garbage stream"))
	reject("garbage block", garbage, nil)
}

// exportedLog exports origin's head into a FileStore and returns the
// bytes of its log: what a joiner is handed.
func exportedLog(t *testing.T, origin *Chain) []byte {
	t.Helper()
	dir := t.TempDir()
	snap, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := origin.Export(snap); err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, store.FileName))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// bootFromLog hands a joiner with its own store the snapshot directory
// dir, its log overwritten with raw. A log the store layer refuses to
// open is a rejection like any other.
func bootFromLog(t *testing.T, origin *Chain, dir string, raw []byte) (*Chain, *store.MemStore, error) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, store.FileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	kv := store.NewMem()
	snap, err := store.OpenFile(dir)
	if err != nil {
		return nil, kv, err
	}
	defer func() { _ = snap.Close() }()
	boot, err := Open(joinerCfg(origin, kv), snap)
	return boot, kv, err
}

// snapshotStride thins the per-byte sweeps under -short (crash-smoke
// runs them under the race detector).
func snapshotStride() int {
	if testing.Short() {
		return 7
	}
	return 1
}

// TestOpenSnapshotTruncatedNoPartialAdoption cuts the exported log at
// every prefix length — mid-magic, mid-record, between records — and
// requires a clean rejection with nothing persisted: the head pointer
// is the last record, so no proper prefix is a snapshot, and a
// half-copied one must never leave a head (or any record) in the
// joiner's store.
func TestOpenSnapshotTruncatedNoPartialAdoption(t *testing.T) {
	origin, _ := persistRig(t, store.NewMem(), 2)
	raw, dir := exportedLog(t, origin), t.TempDir()
	for cut := 0; cut < len(raw); cut += snapshotStride() {
		_, kv, err := bootFromLog(t, origin, dir, raw[:cut])
		if err == nil {
			t.Fatalf("snapshot truncated at byte %d/%d accepted", cut, len(raw))
		}
		if kv.Len() != 0 {
			t.Fatalf("snapshot truncated at byte %d persisted partial state (%d records)", cut, kv.Len())
		}
	}
	if boot, _, err := bootFromLog(t, origin, dir, raw); err != nil || boot.Head().Hash() != origin.Head().Hash() {
		t.Fatalf("the whole log did not boot: %v", err)
	}
}

// TestOpenSnapshotCorruptNoPartialAdoption flips one byte at every
// offset of the exported log, once by a single bit (which the store's
// salvage can repair from the record's CRC) and once by all eight
// (which it cannot: the record is quarantined). A rejected flip must
// persist nothing; an accepted flip must hold the verification
// invariant — the complete state under the adopted header verifies in
// the joiner's own store, which reopens on the same head — and since
// every byte of the log is under a CRC, an accepted flip is a repaired
// one: the exact origin head.
func TestOpenSnapshotCorruptNoPartialAdoption(t *testing.T) {
	origin, _ := persistRig(t, store.NewMem(), 2)
	raw, dir := exportedLog(t, origin), t.TempDir()
	accepted := 0
	for off := 0; off < len(raw); off += snapshotStride() {
		for _, mask := range []byte{0x40, 0xff} {
			tampered := bytes.Clone(raw)
			tampered[off] ^= mask
			boot, kv, err := bootFromLog(t, origin, dir, tampered)
			if err != nil {
				if kv.Len() != 0 {
					t.Fatalf("flip %#x at byte %d rejected but persisted %d records", mask, off, kv.Len())
				}
				continue
			}
			accepted++
			if err := statedb.VerifyState(kv, boot.Head().Header.StateRoot); err != nil {
				t.Fatalf("flip %#x at byte %d adopted unverified state: %v", mask, off, err)
			}
			if boot.Head().Hash() != origin.Head().Hash() {
				t.Fatalf("flip %#x at byte %d adopted a different head", mask, off)
			}
			if re, err := Open(joinerCfg(origin, kv), kv); err != nil || re.Head().Hash() != boot.Head().Hash() {
				t.Fatalf("flip %#x at byte %d: the joiner's store does not reopen on the adopted head: %v", mask, off, err)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no flip was repaired: the accepting branch never ran")
	}
	t.Logf("%d-byte log: %d flips repaired and adopted", len(raw), accepted)
}

func TestOpenSnapshotPersistsWhenStoreSet(t *testing.T) {
	origin, _ := persistRig(t, store.NewMem(), 2)
	snap := exportOf(t, origin)

	kv := store.NewMem()
	cfg := joinerCfg(origin, kv)
	boot, err := Open(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if kv.Len() != snap.Len() {
		t.Fatalf("adoption copied %d records of the snapshot's %d", kv.Len(), snap.Len())
	}
	// The bootstrap is durable: a restart recovers the snapshot head.
	re, err := Open(cfg, kv)
	if err != nil {
		t.Fatalf("Open after snapshot bootstrap: %v", err)
	}
	if re.Head().Hash() != boot.Head().Hash() || re.Base() != boot.Base() {
		t.Fatal("snapshot bootstrap not durable")
	}
	var root types.Hash
	re.ReadState(func(st *statedb.StateDB) { root = st.Root() })
	if root != boot.Head().Header.StateRoot {
		t.Fatal("recovered state root mismatch")
	}
	// And it is the joiner's own: the next block commits into kv, which
	// then verifies with the snapshot long gone.
	blk := buildBlock(t, boot, nil)
	if _, err := boot.InsertBlock(blk); err != nil {
		t.Fatal(err)
	}
	if err := statedb.VerifyState(kv, blk.Header.StateRoot); err != nil {
		t.Fatalf("joiner's store after its first own block: %v", err)
	}
}

// TestRecoveredChainServesSnapshots is the positive form of what used
// to be a refusal: a chain reopened from its datadir exports its head —
// as reopened, all of it behind the store, and after it has adopted a
// block since, part of it in memory — and a joiner boots from either.
func TestRecoveredChainServesSnapshots(t *testing.T) {
	kv := store.NewMem()
	c, owner := persistRig(t, kv, 2)
	re, err := Open(c.Config(), kv)
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 2; round++ {
		boot, err := Open(joinerCfg(c, nil), exportOf(t, re))
		if err != nil {
			t.Fatalf("round %d: joiner rejected a recovered chain's export: %v", round, err)
		}
		if boot.Head().Hash() != re.Head().Hash() || boot.Base() != re.Height() {
			t.Fatalf("round %d: joiner on %d/%s, origin on %d/%s", round,
				boot.Height(), boot.Head().Hash().Hex(), re.Height(), re.Head().Hash().Hex())
		}
		setOnHead(t, re, owner, 2+round, 77+round)
	}
}

// TestExportLeavesSharedPostStateUnstored: a post state is shared by
// whatever copies it or builds on it, and a trie node marked stored is
// skipped by every later commit. An export by a chain that persists
// nothing must therefore mark nothing: a commit of the exported head
// afterwards writes the full record set.
func TestExportLeavesSharedPostStateUnstored(t *testing.T) {
	builder, _ := persistRig(t, store.NewMem(), 3)
	c := New(joinerCfg(builder, nil), genesisWithContract())
	for n := uint64(1); n <= 3; n++ {
		if _, err := c.InsertBlock(builder.BlockByNumber(n)); err != nil {
			t.Fatal(err)
		}
	}
	snap := exportOf(t, c)
	kv := store.NewMem()
	root, _, err := c.State().CommitTo(kv)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stateRecords(t, kv, root), stateRecords(t, snap, root); !maps.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("a commit after the export holds %d of the head state's %d records", len(got), len(want))
	}
}

// TestExportRacesInsert: exports taken while the chain adopts blocks
// each hold one head and exactly its state — every one of them boots a
// joiner — and, under the race detector, touch nothing the adopting
// side writes.
func TestExportRacesInsert(t *testing.T) {
	c, owner := persistRig(t, store.NewMem(), 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 25; i++ {
			snap := store.NewMem()
			if err := c.Export(snap); err != nil {
				t.Errorf("export %d: %v", i, err)
				return
			}
			if _, err := Open(joinerCfg(c, nil), snap); err != nil {
				t.Errorf("export %d does not boot: %v", i, err)
				return
			}
		}
	}()
	for i := uint64(1); i <= 25; i++ {
		setOnHead(t, c, owner, i, 100+i)
	}
	<-done
}

// TestGoldenRootsWithStore pins the acceptance bar that persistence is
// invisible to execution: the same blocks inserted into a store-backed
// and a storeless chain produce bit-identical head roots.
func TestGoldenRootsWithStore(t *testing.T) {
	reg := wallet.NewRegistry()
	owner := wallet.NewKey("golden-owner")
	reg.Register(owner)
	plain := func() *Chain {
		cfg := DefaultConfig()
		cfg.Registry = reg
		return New(cfg, genesisWithContract())
	}()
	stored := func() *Chain {
		cfg := DefaultConfig()
		cfg.Registry = reg
		cfg.Store = store.NewMem()
		return New(cfg, genesisWithContract())
	}()

	for i := uint64(0); i < 4; i++ {
		insertSucceeding(t, stored, setOnHead(t, plain, owner, i, 30+i))
	}
	if plain.Head().Hash() != stored.Head().Hash() {
		t.Fatal("store changed block production")
	}
	var a, b types.Hash
	plain.ReadState(func(st *statedb.StateDB) { a = st.Root() })
	stored.ReadState(func(st *statedb.StateDB) { b = st.Root() })
	if a != b {
		t.Fatal("store changed state roots")
	}
}

// TestOneWritePerBlockAndReorg counts a store-backed chain's writes:
// genesis, every adopted block and a reorg to a branch of three blocks
// are one Write each.
func TestOneWritePerBlockAndReorg(t *testing.T) {
	reg := wallet.NewRegistry()
	writer := wallet.NewKey("one-write-writer")
	reg.Register(writer)
	cfg := DefaultConfig()
	cfg.Registry = reg
	kv := store.NewFault(store.NewMem(), &store.FaultPolicy{FailEveryNth: 1 << 30}) // counts, never fails
	cfg.Store = kv
	c, m := newChainModel(t, rand.New(rand.NewSource(1)), writer, cfg)
	writes := func(want int, after string) {
		t.Helper()
		if got := kv.Writes(); got != want {
			t.Fatalf("%d writes after %s, want %d", got, after, want)
		}
	}
	writes(1, "genesis")
	m.grow(3, c)
	writes(4, "three blocks")
	m.follow(m.fork(1), c)
	writes(5, "a reorg")
}

// TestStoresFromOneGenesisAreWhole: chains built from one genesis
// instance share its trie nodes, and a node marked stored is one every
// later commit skips. An export by a storeless chain marks nothing, and
// each store-backed chain writes genesis whole, whatever another chain
// marked, so both stores verify at genesis and after three blocks. A
// chain built from a genesis of its own writes the log a commit of
// genesis wrote: on one contract the same records in the same order,
// byte for byte, on two as many bytes (the walk stages them in another
// order). (The one-contract digest moved once, when the receipt root
// became one digest over the receipts' encodings: the blocks' receipt
// roots, their children's parent hashes and the records' checksums
// changed, nothing else.)
func TestStoresFromOneGenesisAreWhole(t *testing.T) {
	reg := wallet.NewRegistry()
	owner := wallet.NewKey("persist-owner")
	reg.Register(owner)
	cfg := DefaultConfig()
	cfg.Registry = reg
	grow := func(kv store.Store, genesis *statedb.StateDB) {
		t.Helper()
		cfg.Store = kv
		c := New(cfg, genesis)
		for n := uint64(0); n <= 3; n++ {
			if n > 0 {
				setOnHead(t, c, owner, n-1, 10+n)
			}
			if err := statedb.VerifyState(kv, c.Head().Header.StateRoot); err != nil {
				t.Fatalf("the store at block %d: %v", n, err)
			}
		}
	}
	genesis := genesisWithContract()
	exportOf(t, New(cfg, genesis))
	for range 2 {
		grow(store.NewMem(), genesis)
	}

	twoContracts := genesisWithContract()
	twoContracts.SetCode(kvAddr, asm.KVStoreContract())
	for _, tc := range []struct {
		name    string
		genesis *statedb.StateDB
		size    int
		digest  string
	}{
		{"one contract", genesisWithContract(), 4647, "0x39313aab44390f16cb820ea9ca230f12b27114da5e73538f466248c5da458e11"},
		{"two contracts", twoContracts, 5083, ""},
	} {
		dir := t.TempDir()
		kv, err := store.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		grow(kv, tc.genesis)
		if err := kv.Close(); err != nil {
			t.Fatal(err)
		}
		log := readFile(t, filepath.Join(dir, store.FileName))
		if digest := types.Keccak(log).Hex(); len(log) != tc.size || (tc.digest != "" && digest != tc.digest) {
			t.Errorf("%s: a %d-byte log digesting to %s, want %d bytes (%s)", tc.name, len(log), digest, tc.size, tc.digest)
		}
	}
}
