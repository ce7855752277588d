package chain

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"testing"

	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// crashFixture is the deterministic 12-block persistence fixture the
// crash-point sweep replays: blocks are built once and re-inserted into
// every fault-injected chain, so each sweep cell only pays validation.
type crashFixture struct {
	reg    *wallet.Registry
	blocks []*types.Block
	// valid maps every hash a recovered head may legitimately carry
	// (genesis + each fixture block) to its state root.
	valid map[types.Hash]types.Hash
	// writes is how many store writes a full fault-free run issues;
	// the sweep injects at every one of them.
	writes int
}

var (
	crashFixtureOnce sync.Once
	crashFixtureVal  *crashFixture
)

const crashFixtureBlocks = 12

func getCrashFixture(t *testing.T) *crashFixture {
	t.Helper()
	crashFixtureOnce.Do(func() {
		reg := wallet.NewRegistry()
		owner := wallet.NewKey("crash-owner")
		reg.Register(owner)
		cfg := DefaultConfig()
		cfg.Registry = reg
		cfg.Store = store.NewMem()
		c := New(cfg, genesisWithContract())
		fx := &crashFixture{reg: reg, valid: map[types.Hash]types.Hash{}}
		fx.valid[c.Head().Hash()] = c.Head().Header.StateRoot
		prev := types.ZeroWord
		for i := 0; i < crashFixtureBlocks; i++ {
			val := uint64(40 + i)
			tx := setTxFor(owner, uint64(i), prev, val, types.FlagHead)
			blk := buildBlock(t, c, []*types.Transaction{tx})
			if _, err := c.InsertBlock(blk); err != nil {
				t.Fatalf("fixture insert %d: %v", i, err)
			}
			fx.blocks = append(fx.blocks, blk)
			fx.valid[blk.Hash()] = blk.Header.StateRoot
			prev = types.WordFromUint64(val)
		}
		// Count the writes of a fault-free file-backed run.
		probe, err := store.OpenFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		counter := store.NewFault(probe, &store.FaultPolicy{Seed: 1, FailEveryNth: 1 << 30})
		fx.runInto(t, counter, 2)
		fx.writes = counter.Writes()
		_ = counter.Close()
		if fx.writes != crashFixtureBlocks+1 {
			t.Fatalf("fixture writes = %d, want one a block: %d", fx.writes, crashFixtureBlocks+1)
		}
		crashFixtureVal = fx
	})
	return crashFixtureVal
}

// runInto replays the fixture into a chain backed by kv, stopping at
// the first persist failure (the injected crash). Genesis persistence
// panics on store errors by design, so that path is absorbed here.
func (fx *crashFixture) runInto(t *testing.T, kv store.Store, syncEvery int) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Registry = fx.reg
	cfg.Store = kv
	cfg.SyncEvery = syncEvery
	var c *Chain
	func() {
		defer func() { _ = recover() }()
		c = New(cfg, genesisWithContract())
	}()
	if c == nil {
		return // crashed persisting genesis
	}
	for _, blk := range fx.blocks {
		if _, err := c.InsertBlock(blk); err != nil {
			return
		}
	}
}

// checkRecovery reopens dir after an injected crash/corruption and
// asserts the recovery invariant: salvage succeeds, and if a head is
// recoverable at all, chain.Open lands on a previously-durable fixture
// block whose complete state verifies.
func (fx *crashFixture) checkRecovery(t *testing.T, dir, cell string) {
	t.Helper()
	re, err := store.OpenFile(dir)
	if err != nil {
		t.Fatalf("%s: salvage failed: %v", cell, err)
	}
	defer func() { _ = re.Close() }()
	if !HasHead(re) {
		return // crashed before any durable head — recovery is genesis-from-scratch
	}
	cfg := DefaultConfig()
	cfg.Registry = fx.reg
	cfg.Store = re
	c, err := Open(cfg, re)
	if err != nil {
		t.Fatalf("%s: Open after salvage: %v (report %+v)", cell, err, re.Salvage())
	}
	head := c.Head()
	wantRoot, ok := fx.valid[head.Hash()]
	if !ok {
		t.Fatalf("%s: recovered head %d/%s is not a previously-adopted block",
			cell, head.Number(), head.Hash().Hex())
	}
	if head.Header.StateRoot != wantRoot {
		t.Fatalf("%s: recovered head %d root mismatch", cell, head.Number())
	}
	// Re-verify explicitly even when Open trusted a clean salvage.
	if err := statedb.VerifyState(re, head.Header.StateRoot); err != nil {
		t.Fatalf("%s: recovered head %d state does not verify: %v", cell, head.Number(), err)
	}
}

// crashSweepSeeds returns how many RNG seeds the sweep covers per
// crash point; the acceptance bar is >= 20, -short keeps dev loops fast.
func crashSweepSeeds() int {
	if testing.Short() {
		return 3
	}
	return 20
}

// TestCrashPointSweep is the recovery invariant checker: for every
// write a full run issues, and for many RNG seeds (which move the torn
// byte offsets and tail cuts), crash at that point, reopen, and require
// a verified durable head.
func TestCrashPointSweep(t *testing.T) {
	fx := getCrashFixture(t)
	seeds := crashSweepSeeds()
	for mode, arm := range map[string]func(pol *store.FaultPolicy, k int){
		"torn":  func(pol *store.FaultPolicy, k int) { pol.TornAppendAtWrite = k },
		"crash": func(pol *store.FaultPolicy, k int) { pol.CrashAtWrite = k; pol.DropUnsyncedOnCrash = true },
	} {
		t.Run(mode, func(t *testing.T) {
			for k := 1; k <= fx.writes; k++ {
				for seed := 0; seed < seeds; seed++ {
					pol := &store.FaultPolicy{Seed: int64(seed)*1000 + int64(k)}
					arm(pol, k)
					dir := t.TempDir()
					kv, err := store.OpenFile(dir)
					if err != nil {
						t.Fatal(err)
					}
					fault := store.NewFault(kv, pol)
					fx.runInto(t, fault, 2)
					fault.Crash() // ensure the handle is abandoned crash-style
					fx.checkRecovery(t, dir, fmt.Sprintf("%s@%d seed %d", mode, k, seed))
				}
			}
		})
	}
}

// TestBitFlipSweep flips one random bit of the log after every Nth
// write (the run itself completes and closes cleanly — silent media
// corruption), then requires reopen to land on a verified durable head.
func TestBitFlipSweep(t *testing.T) {
	fx := getCrashFixture(t)
	seeds := crashSweepSeeds()
	for k := 1; k <= fx.writes; k++ {
		for seed := 0; seed < seeds; seed++ {
			pol := &store.FaultPolicy{Seed: int64(seed)*1000 + int64(k), FlipBitAtWrite: k}
			dir := t.TempDir()
			kv, err := store.OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			fault := store.NewFault(kv, pol)
			fx.runInto(t, fault, 2)
			if err := fault.Close(); err != nil {
				t.Fatal(err)
			}
			fx.checkRecovery(t, dir, fmt.Sprintf("flip@%d seed %d", k, seed))
		}
	}
}

// TestOpenFallsBackToDurableHead destroys the head block's body record
// (multi-byte damage, beyond single-bit repair) while the head pointer
// survives: Open must walk down to the deepest block whose state
// verifies and repoint the head record there.
func TestOpenFallsBackToDurableHead(t *testing.T) {
	fx := getCrashFixture(t)
	dir := t.TempDir()
	kv, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fx.runInto(t, kv, 2)
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	// The log ends with the final block's body+head batch; the head
	// record is its last ~22 bytes. Smashing a dozen bytes a little
	// further back lands inside the block-body record without touching
	// the head pointer.
	f, err := os.OpenFile(kv.Path(), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xa5}, 12), size-60); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if rep := re.Salvage(); rep.Quarantined == 0 {
		t.Skipf("damage did not quarantine a record (report %+v)", rep)
	}
	cfg := DefaultConfig()
	cfg.Registry = fx.reg
	cfg.Store = re
	c, err := Open(cfg, re)
	if err != nil {
		t.Fatalf("Open after head-record damage: %v", err)
	}
	if got := c.Head().Number(); got != crashFixtureBlocks-1 {
		t.Fatalf("fallback head %d, want %d", got, crashFixtureBlocks-1)
	}
	if _, ok := fx.valid[c.Head().Hash()]; !ok {
		t.Fatal("fallback head is not a previously-adopted block")
	}
	if err := statedb.VerifyState(re, c.Head().Header.StateRoot); err != nil {
		t.Fatalf("fallback head state: %v", err)
	}
	// The head record was repointed: the next reopen is clean and lands
	// on the same fallback head without any salvage.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re2.Close() }()
	if rep := re2.Salvage(); rep.Dirty() {
		t.Fatalf("log dirty after fallback repair: %+v", rep)
	}
	cfg.Store = re2
	c2, err := Open(cfg, re2)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Head().Hash() != c.Head().Hash() {
		t.Fatal("fallback head not durable across reopen")
	}
}

// TestInjectedWriteFailureSurfacesCleanly checks a failed (not crashed)
// write propagates as an InsertBlock error and leaves the chain usable.
func TestInjectedWriteFailureSurfacesCleanly(t *testing.T) {
	fx := getCrashFixture(t)
	kv, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fault := store.NewFault(kv, &store.FaultPolicy{Seed: 9, FailEveryNth: 7})
	defer func() { _ = fault.Close() }()
	cfg := DefaultConfig()
	cfg.Registry = fx.reg
	cfg.Store = fault
	c := New(cfg, genesisWithContract())
	sawErr := false
	for _, blk := range fx.blocks {
		if _, err := c.InsertBlock(blk); err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("injected write failures never surfaced")
	}
}

// TestTornReorgKeepsHistory tears each write a reorg issues — a chain of
// four blocks on a FileStore switching to a branch of six from genesis —
// at 20 seeds each, which move the cut, and reopens the datadir: the
// chain comes back from genesis, on the head it had or on the branch's
// tip, and every block of it is one the chain or the branch built.
func TestTornReorgKeepsHistory(t *testing.T) {
	reg := wallet.NewRegistry()
	writer := wallet.NewKey("torn-reorg-writer")
	reg.Register(writer)
	cfg := DefaultConfig()
	cfg.Registry = reg
	_, m := newChainModel(t, rand.New(rand.NewSource(1)), writer, cfg)
	canon, branch := m.branch(m.canon[0], 4), m.branch(m.canon[0], 6)

	// run grows the chain on a FaultStore over dir, then imports the
	// branch; it returns the store, how many writes preceded the import,
	// and the import's error.
	run := func(dir string, pol *store.FaultPolicy) (*store.FaultStore, int, error) {
		fs, err := store.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		kv := store.NewFault(fs, pol)
		cfg := cfg
		cfg.Store = kv
		c := New(cfg, modelGenesis())
		for _, mb := range canon {
			if _, err := c.InsertBlock(mb.block); err != nil {
				t.Fatal(err)
			}
		}
		before := kv.Writes()
		_, err = c.ImportFork(blocksOf(branch))
		return kv, before, err
	}
	counter, before, err := run(t.TempDir(), &store.FaultPolicy{FailEveryNth: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	writes := counter.Writes() - before
	_ = counter.Close()
	for k := 1; k <= writes; k++ {
		for seed := int64(0); seed < 20; seed++ {
			cell := fmt.Sprintf("write %d of %d, seed %d", k, writes, seed)
			dir := t.TempDir()
			kv, _, err := run(dir, &store.FaultPolicy{Seed: seed, TornAppendAtWrite: before + k})
			if !errors.Is(err, store.ErrCrashed) {
				t.Fatalf("%s: the torn import returned %v", cell, err)
			}
			_ = kv.Close()
			re, err := store.OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg := cfg
			cfg.Store = re
			c, err := Open(cfg, re)
			if err != nil {
				t.Fatalf("%s: reopen: %v", cell, err)
			}
			if c.Base() != 0 {
				t.Fatalf("%s: the reopened chain starts at block %d, head %d", cell, c.Base(), c.Height())
			}
			for n := c.Base(); n <= c.Height(); n++ {
				if _, ok := m.built[c.BlockByNumber(n).Hash()]; !ok {
					t.Fatalf("%s: the reopened chain holds block %d, which nobody built", cell, n)
				}
			}
			if head := c.Head().Hash(); head != canon[3].hash && head != branch[5].hash {
				t.Fatalf("%s: the reopened chain's head is block %d, neither tip", cell, c.Height())
			}
			_ = re.Close()
		}
	}
}
