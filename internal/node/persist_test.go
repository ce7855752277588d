package node

import (
	"bytes"
	"errors"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/p2p"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
)

// mineBlocks drives n through count mining rounds with one set() tx each.
func mineBlocks(t *testing.T, f *fixture, n *Node, count int) {
	t.Helper()
	prev := types.ZeroWord
	start := n.NonceAt(f.owner.Address())
	for i := 0; i < count; i++ {
		val := uint64(10 + i)
		if _, err := n.SubmitSet(f.owner, start+uint64(i), contractAddr, types.FlagHead, prev, types.WordFromUint64(val)); err != nil {
			t.Fatal(err)
		}
		f.net.AdvanceTo(f.net.Now() + 5)
		if _, err := n.MineAndBroadcast(f.net.Now() + 15); err != nil {
			t.Fatal(err)
		}
		f.net.AdvanceTo(f.net.Now() + 20)
		prev = types.WordFromUint64(val)
	}
}

// compactFails is a store whose rewrites fail, as they do on a full
// disk.
type compactFails struct{ store.Store }

func (compactFails) Compact(func(key []byte) bool) (store.CompactStats, error) {
	return store.CompactStats{}, errors.New("no space left on device")
}

// TestFailedSweepIsNotARejection: a miner whose chain cannot sweep its
// store adopts and broadcasts the block that set the sweep off, and the
// blocks after it; neither it nor its peer counts one as rejected.
func TestFailedSweepIsNotARejection(t *testing.T) {
	f := newFixture(t,
		Config{Mode: ModeSereth, Miner: MinerBaseline, Store: compactFails{store.NewMem()}},
		Config{Mode: ModeSereth})
	miner, peer := f.nodes[0], f.nodes[1]
	mineBlocks(t, f, miner, 514)
	if miner.Chain().SweepErr() == nil {
		t.Fatal("the sweep at block 512 did not fail")
	}
	if peer.Chain().Head().Hash() != miner.Chain().Head().Hash() {
		t.Fatalf("peer at %d, miner at %d", peer.Chain().Height(), miner.Chain().Height())
	}
	for _, n := range f.nodes {
		if st := n.Stats(); st.BlocksRejected != 0 {
			t.Fatalf("node %d rejected %d blocks", n.id, st.BlocksRejected)
		}
	}
}

func TestNodeRestartRecoversHead(t *testing.T) {
	dir := t.TempDir()
	kv, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t, Config{Mode: ModeSereth, Miner: MinerBaseline, Store: kv})
	miner := f.nodes[0]
	if miner.BootSource() != BootGenesis {
		t.Fatalf("fresh datadir boot source = %s", miner.BootSource())
	}
	mineBlocks(t, f, miner, 3)
	wantHead := miner.Chain().Head().Hash()
	wantPrice := miner.StorageAt(contractAddr, 2)
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same datadir, fresh process state, no genesis replay.
	kv2, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = kv2.Close() }()
	net2 := p2p.NewNetwork(p2p.Config{})
	chainCfg := chain.DefaultConfig()
	chainCfg.Registry = f.reg
	re, err := New(Config{
		ID: 1, Mode: ModeSereth, Miner: MinerBaseline, Contract: contractAddr,
		Chain: chainCfg, Network: net2, Store: kv2, Seed: 1,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if re.BootSource() != BootRecovered {
		t.Fatalf("boot source = %s", re.BootSource())
	}
	if re.Chain().Height() != 3 || re.Chain().Head().Hash() != wantHead {
		t.Fatalf("recovered height %d head %s", re.Chain().Height(), re.Chain().Head().Hash().Hex())
	}
	if got := re.StorageAt(contractAddr, 2); got != wantPrice {
		t.Fatalf("recovered price %x != %x", got, wantPrice)
	}
	// The recovered node keeps producing blocks.
	f2 := &fixture{net: net2, owner: f.owner, reg: f.reg}
	mineBlocks(t, f2, re, 1)
	if re.Chain().Height() != 4 {
		t.Fatal("recovered node cannot extend the chain")
	}
}

// openDir opens a datadir (or a snapshot: the same thing) under dir.
func openDir(t *testing.T, dir string) *store.FileStore {
	t.Helper()
	kv, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = kv.Close() })
	return kv
}

// TestSnapshotBootstrapJoiner: a peer restarted from its datadir — its
// state a lazy overlay on the store — exports its head; the export
// boots a joiner that keeps no store (and reads through the snapshot),
// a joiner with a datadir of its own (which the snapshot is copied
// into), and, being a datadir itself, a node that simply runs on it.
// All three then follow the network block for block.
func TestSnapshotBootstrapJoiner(t *testing.T) {
	serverDir := t.TempDir()
	f := newFixture(t,
		Config{Mode: ModeGeth, Miner: MinerBaseline},
		Config{Mode: ModeGeth, Store: openDir(t, serverDir)},
	)
	miner := f.nodes[0]
	mineBlocks(t, f, miner, 3)
	if err := f.nodes[1].Close(); err != nil {
		t.Fatal(err)
	}
	chainCfg := chain.DefaultConfig()
	chainCfg.Registry = f.reg
	join := func(id p2p.PeerID, own, snapshot store.Store) *Node {
		t.Helper()
		n, err := New(Config{
			ID: id, Mode: ModeGeth, Contract: contractAddr,
			Chain: chainCfg, Network: f.net, Store: own, Bootstrap: snapshot,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	server := join(2, openDir(t, serverDir), nil)
	if server.BootSource() != BootRecovered || server.Chain().Height() != 3 {
		t.Fatalf("serving peer restarted as %s at %d", server.BootSource(), server.Chain().Height())
	}
	snapDir, runDir := t.TempDir(), t.TempDir()
	for _, dir := range []string{snapDir, runDir} {
		snap, err := store.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.Chain().Export(snap); err != nil {
			t.Fatalf("a recovered node could not export: %v", err)
		}
		if err := snap.Close(); err != nil {
			t.Fatal(err)
		}
	}

	ownDir := t.TempDir()
	snap := openDir(t, snapDir)
	persisting := join(10, openDir(t, ownDir), snap)
	if err := snap.Close(); err != nil { // adopted: its own datadir answers from here on
		t.Fatal(err)
	}
	joiners := map[string]*Node{
		"store-less":          join(9, nil, openDir(t, snapDir)),
		"persisting":          persisting,
		"run on the snapshot": join(11, openDir(t, runDir), nil),
	}
	for name, n := range joiners {
		want := BootSnapshot
		if name == "run on the snapshot" {
			want = BootRecovered
		}
		if n.BootSource() != want {
			t.Fatalf("%s: boot source = %s", name, n.BootSource())
		}
		if n.Chain().Head().Hash() != miner.Chain().Head().Hash() {
			t.Fatalf("%s: head differs from serving peer", name)
		}
		if n.Chain().Base() != 3 {
			t.Fatalf("%s: base = %d", name, n.Chain().Base())
		}
	}

	// The joiners follow subsequent blocks like any peer.
	mineBlocks(t, f, miner, 2)
	joiners["restarted server"] = server
	for name, n := range joiners {
		if n.Chain().Height() != miner.Chain().Height() ||
			n.Chain().Head().Hash() != miner.Chain().Head().Hash() {
			t.Fatalf("%s at %d, network at %d", name, n.Chain().Height(), miner.Chain().Height())
		}
	}
	// The persisting joiner's bootstrap and what it adopted since are
	// durable in its own datadir.
	if err := persisting.Close(); err != nil {
		t.Fatal(err)
	}
	re := join(10, openDir(t, ownDir), nil)
	if re.BootSource() != BootRecovered || re.Chain().Head().Hash() != miner.Chain().Head().Hash() {
		t.Fatalf("persisting joiner restarted as %s at %d", re.BootSource(), re.Chain().Height())
	}

	// Below a joiner's base is final: a block right above it on another
	// parent attaches to nothing and is rejected, while a rival block on
	// the base is a fork candidate.
	n, base := joiners["store-less"], joiners["store-less"].Chain().BlockByNumber(3)
	n.HandleBlock(99, &types.Block{Header: &types.Header{Number: 4, ParentHash: types.Hash{1}}})
	n.HandleBlock(99, &types.Block{Header: &types.Header{Number: 4, ParentHash: base.Hash(), Time: 1}})
	if got := n.Stats().BlocksRejected; got != 1 {
		t.Fatalf("the store-less joiner counted %d blocks rejected, want 1", got)
	}
}

// TestSnapshotFallbackToBlockSync: a snapshot with an altered state
// record, and a store that is no snapshot at all, must not wedge the
// joiner: nothing of them is adopted, its own store starts from
// genesis, and catch-up sync converges it.
func TestSnapshotFallbackToBlockSync(t *testing.T) {
	f := newFixture(t, Config{Mode: ModeGeth, Miner: MinerBaseline})
	miner := f.nodes[0]
	mineBlocks(t, f, miner, 3)

	tampered := store.NewMem()
	if err := miner.Chain().Export(tampered); err != nil {
		t.Fatal(err)
	}
	var key, val []byte
	root := miner.Chain().Head().Header.StateRoot
	if err := statedb.OpenAt(tampered, root).Walk(nil, func(k, v []byte) { key, val = bytes.Clone(k), bytes.Clone(v) }); err != nil {
		t.Fatal(err)
	}
	val[len(val)/2] ^= 0xff
	if err := tampered.Put(key, val); err != nil {
		t.Fatal(err)
	}

	// The joiners start from the network's genesis so block sync can
	// attach at block 0 — each from an instance of its own: a state
	// object remembers which of its nodes the first store it was
	// committed to already holds.
	newGenesis := func() *statedb.StateDB {
		genesis := statedb.New()
		genesis.SetCode(contractAddr, asm.SerethContract())
		return genesis
	}
	chainCfg := chain.DefaultConfig()
	chainCfg.Registry = f.reg
	var joiners []*Node
	var stores []*store.MemStore
	for i, snapshot := range []store.Store{tampered, store.NewMem()} {
		kv := store.NewMem()
		joiner, err := New(Config{
			ID: p2p.PeerID(9 + i), Mode: ModeGeth, Contract: contractAddr,
			Chain: chainCfg, Genesis: newGenesis(), Network: f.net,
			Store: kv, Bootstrap: snapshot,
		})
		if err != nil {
			t.Fatal(err)
		}
		if joiner.BootSource() != BootSnapshotFailed {
			t.Fatalf("boot source = %s", joiner.BootSource())
		}
		if joiner.Chain().Height() != 0 {
			t.Fatal("fallback joiner should start at genesis")
		}
		// Its store holds the genesis it fell back to and nothing else.
		fresh := store.NewMem()
		chainCfg.Store = fresh
		chain.New(chainCfg, newGenesis())
		chainCfg.Store = nil
		if kv.Len() != fresh.Len() {
			t.Fatalf("rejected snapshot left %d records in the joiner's store, a genesis datadir holds %d", kv.Len(), fresh.Len())
		}
		joiners, stores = append(joiners, joiner), append(stores, kv)
	}

	// Next broadcast block arrives ahead of the joiners' head; the
	// orphan/catch-up path pulls the gap and converges them.
	mineBlocks(t, f, miner, 1)
	f.net.AdvanceTo(f.net.Now() + 200)
	for i, joiner := range joiners {
		if joiner.Chain().Height() != miner.Chain().Height() ||
			joiner.Chain().Head().Hash() != miner.Chain().Head().Hash() {
			t.Fatalf("joiner at %d, network at %d", joiner.Chain().Height(), miner.Chain().Height())
		}
		if err := statedb.VerifyState(stores[i], joiner.Chain().Head().Header.StateRoot); err != nil {
			t.Fatalf("converged joiner's store: %v", err)
		}
	}
}
