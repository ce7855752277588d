package node

import (
	"sync"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/evm"
	"sereth/internal/keccak"
	"sereth/internal/p2p"
	"sereth/internal/statedb"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

var contractAddr = types.Address{19: 0xcc}

type fixture struct {
	net   *p2p.Network
	nodes []*Node
	owner *wallet.Key
	buyer *wallet.Key
	reg   *wallet.Registry
}

// newFixture builds a network of nodes; spec[i] configures node i+1.
func newFixture(t *testing.T, spec ...Config) *fixture {
	t.Helper()
	owner := wallet.NewKey("owner")
	buyer := wallet.NewKey("buyer")
	reg := wallet.NewRegistry()
	reg.Register(owner)
	reg.Register(buyer)

	genesis := statedb.New()
	genesis.SetCode(contractAddr, asm.SerethContract())

	net := p2p.NewNetwork(p2p.Config{LatencyMs: 10, Seed: 1})
	f := &fixture{net: net, owner: owner, buyer: buyer, reg: reg}
	for i, cfg := range spec {
		cfg.ID = p2p.PeerID(i + 1)
		cfg.Contract = contractAddr
		cfg.Network = net
		cfg.Genesis = genesis
		chainCfg := chain.DefaultConfig()
		chainCfg.Registry = reg
		cfg.Chain = chainCfg
		if cfg.Seed == 0 {
			cfg.Seed = int64(i + 1)
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f.nodes = append(f.nodes, n)
	}
	return f
}

func TestTxGossip(t *testing.T) {
	f := newFixture(t,
		Config{Mode: ModeGeth, Miner: MinerBaseline},
		Config{Mode: ModeGeth},
		Config{Mode: ModeSereth},
	)
	tx, err := f.nodes[1].SubmitSet(f.owner, 0, contractAddr, types.FlagHead, types.ZeroWord, types.WordFromUint64(5))
	if err != nil {
		t.Fatal(err)
	}
	f.net.AdvanceTo(10)
	for i, n := range f.nodes {
		if !n.Pool().Has(tx.Hash()) {
			t.Errorf("node %d missing gossiped tx", i+1)
		}
	}
}

func TestMineAndConverge(t *testing.T) {
	f := newFixture(t,
		Config{Mode: ModeGeth, Miner: MinerBaseline},
		Config{Mode: ModeGeth},
		Config{Mode: ModeSereth},
	)
	if _, err := f.nodes[2].SubmitSet(f.owner, 0, contractAddr, types.FlagHead, types.ZeroWord, types.WordFromUint64(5)); err != nil {
		t.Fatal(err)
	}
	f.net.AdvanceTo(10)
	block, err := f.nodes[0].MineAndBroadcast(15)
	if err != nil {
		t.Fatal(err)
	}
	if block == nil || len(block.Txs) != 1 {
		t.Fatalf("block: %+v", block)
	}
	f.net.AdvanceTo(30)

	roots := map[types.Hash]bool{}
	for i, n := range f.nodes {
		if n.Chain().Height() != 1 {
			t.Errorf("node %d height %d", i+1, n.Chain().Height())
		}
		roots[n.Chain().Head().Header.StateRoot] = true
		// Included tx removed from every pool.
		if n.Pool().Len() != 0 {
			t.Errorf("node %d pool not drained", i+1)
		}
	}
	if len(roots) != 1 {
		t.Error("peers diverged")
	}
	// Committed price visible via the standard storage read on all nodes.
	for _, n := range f.nodes {
		if v, _ := n.StorageAt(contractAddr, asm.SlotValue).Uint64(); v != 5 {
			t.Error("committed price not visible")
		}
	}
}

func TestViewAMVGethVsSereth(t *testing.T) {
	f := newFixture(t,
		Config{Mode: ModeGeth, Miner: MinerBaseline},
		Config{Mode: ModeSereth},
	)
	geth, sereth := f.nodes[0], f.nodes[1]

	// Commit set(5) so both clients agree on the committed state.
	if _, err := geth.SubmitSet(f.owner, 0, contractAddr, types.FlagHead, types.ZeroWord, types.WordFromUint64(5)); err != nil {
		t.Fatal(err)
	}
	f.net.AdvanceTo(10)
	if _, err := geth.MineAndBroadcast(15); err != nil {
		t.Fatal(err)
	}
	f.net.AdvanceTo(30)

	committedMark := types.NextMark(types.ZeroWord, types.WordFromUint64(5))

	// Now a pending set(7) sits in the pool, chained on the committed
	// mark. Per protocol the first HMS transaction after a publish is a
	// head candidate, so it carries FlagHead (Algorithm 2).
	if _, err := sereth.SubmitSet(f.owner, 1, contractAddr, types.FlagHead, committedMark, types.WordFromUint64(7)); err != nil {
		t.Fatal(err)
	}
	f.net.AdvanceTo(50)

	// Geth view: committed (stale) values.
	flag, mark, value := geth.ViewAMV(f.buyer.Address(), contractAddr)
	if flag != types.FlagHead || mark != committedMark {
		t.Error("geth view should be committed state")
	}
	if v, _ := value.Uint64(); v != 5 {
		t.Errorf("geth price = %d", v)
	}

	// Sereth view: READ-UNCOMMITTED pending tail.
	flag, mark, value = sereth.ViewAMV(f.buyer.Address(), contractAddr)
	if flag != types.FlagChain {
		t.Error("sereth flag should be chain")
	}
	wantMark := types.NextMark(committedMark, types.WordFromUint64(7))
	if mark != wantMark {
		t.Error("sereth mark should be the pending tail")
	}
	if v, _ := value.Uint64(); v != 7 {
		t.Errorf("sereth price = %d, want pending 7", v)
	}
}

func TestSemanticMinerEndToEnd(t *testing.T) {
	f := newFixture(t,
		Config{Mode: ModeSereth, Miner: MinerSemantic},
		Config{Mode: ModeSereth},
	)
	minerNode, clientNode := f.nodes[0], f.nodes[1]

	// Owner chains two sets; buyer (via RAA view) chases the tail.
	prev := types.ZeroWord
	v5 := types.WordFromUint64(5)
	if _, err := clientNode.SubmitSet(f.owner, 0, contractAddr, types.FlagHead, prev, v5); err != nil {
		t.Fatal(err)
	}
	f.net.AdvanceTo(10)

	flag, mark, value := clientNode.ViewAMV(f.buyer.Address(), contractAddr)
	if v, _ := value.Uint64(); v != 5 {
		t.Fatalf("client view price = %d", v)
	}
	if _, err := clientNode.SubmitBuy(f.buyer, 0, contractAddr, flag, mark, value); err != nil {
		t.Fatal(err)
	}
	f.net.AdvanceTo(20)

	block, err := minerNode.MineAndBroadcast(15)
	if err != nil {
		t.Fatal(err)
	}
	receipts := minerNode.Chain().Receipts(block.Hash())
	if len(receipts) != 2 {
		t.Fatalf("receipts = %d", len(receipts))
	}
	for i, r := range receipts {
		if r.Status != types.StatusSucceeded {
			t.Errorf("tx %d failed under semantic mining", i)
		}
	}
}

func TestSemanticMinerRequiresSereth(t *testing.T) {
	net := p2p.NewNetwork(p2p.Config{})
	_, err := New(Config{
		ID: 1, Mode: ModeGeth, Miner: MinerSemantic,
		Contract: contractAddr, Network: net,
		Chain: chain.DefaultConfig(),
	})
	if err == nil {
		t.Error("semantic miner on geth node accepted")
	}
}

func TestNodeRequiresNetwork(t *testing.T) {
	if _, err := New(Config{ID: 1, Mode: ModeGeth}); err == nil {
		t.Error("node without network accepted")
	}
}

func TestRejectedBlockCounted(t *testing.T) {
	f := newFixture(t, Config{Mode: ModeGeth})
	// Next-height block with a bogus parent: rejected outright.
	bogus := &types.Block{Header: &types.Header{Number: 1, ParentHash: types.Hash{1}}}
	f.nodes[0].HandleBlock(99, bogus)
	if f.nodes[0].Stats().BlocksRejected != 1 {
		t.Error("rejected block not counted")
	}
	if f.nodes[0].Chain().Height() != 0 {
		t.Error("bogus block advanced chain")
	}
}

func TestSyncRecoversFromLostBlock(t *testing.T) {
	// Failure injection: node 2 misses block 1 entirely (delivered only
	// to the producer's own chain), then receives block 2 — it must
	// buffer it, request the gap, and converge.
	f := newFixture(t,
		Config{Mode: ModeGeth, Miner: MinerBaseline},
		Config{Mode: ModeGeth},
	)
	producer, lagger := f.nodes[0], f.nodes[1]

	// Block 1: mine and deliver ONLY to the producer (simulate loss by
	// not advancing the network before mining block 2).
	if _, err := producer.SubmitSet(f.owner, 0, contractAddr, types.FlagHead, types.ZeroWord, types.WordFromUint64(5)); err != nil {
		t.Fatal(err)
	}
	block1, err := producer.MineAndBroadcast(15)
	if err != nil {
		t.Fatal(err)
	}
	_ = block1
	// Do NOT advance: the gossip for block 1 is still in flight; hand
	// block 2 to the lagger directly, out of order.
	block2, err := producer.MineAndBroadcast(30)
	if err != nil {
		t.Fatal(err)
	}
	if producer.Chain().Height() != 2 {
		t.Fatal("producer height wrong")
	}
	// Deliver only block 2 first by calling the handler directly.
	lagger.HandleBlock(producer.ID(), block2)
	if lagger.Chain().Height() != 0 {
		t.Fatal("lagger imported out-of-order block")
	}
	// The lagger requested the gap; let the network flush everything.
	f.net.Drain()
	if lagger.Chain().Height() != 2 {
		t.Fatalf("lagger height = %d after sync, want 2", lagger.Chain().Height())
	}
	if lagger.Chain().Head().Hash() != producer.Chain().Head().Hash() {
		t.Error("peers diverged after catch-up")
	}
}

func TestSyncUnderBlockLoss(t *testing.T) {
	// End-to-end with a lossy network: 30% of gossip messages dropped;
	// catch-up sync must still converge all peers.
	owner := wallet.NewKey("owner")
	reg := wallet.NewRegistry()
	reg.Register(owner)
	genesis := statedb.New()
	genesis.SetCode(contractAddr, asm.SerethContract())
	net := p2p.NewNetwork(p2p.Config{LatencyMs: 10, DropRate: 0.3, Seed: 5})

	mkNode := func(id p2p.PeerID, kind MinerKind) *Node {
		chainCfg := chain.DefaultConfig()
		chainCfg.Registry = reg
		n, err := New(Config{
			ID: id, Mode: ModeGeth, Miner: kind,
			Contract: contractAddr, Chain: chainCfg, Genesis: genesis, Network: net,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	producer := mkNode(1, MinerBaseline)
	peers := []*Node{producer, mkNode(2, MinerNone), mkNode(3, MinerNone)}

	now := uint64(0)
	for i := 0; i < 10; i++ {
		now += 1000
		net.AdvanceTo(now)
		if _, err := producer.MineAndBroadcast(now / 1000); err != nil {
			t.Fatal(err)
		}
		// A re-announcement tick: peers behind the head ask the producer
		// for the gap (models the periodic sync a real client runs).
		for _, p := range peers[1:] {
			if p.Chain().Height() < producer.Chain().Height() {
				net.RequestBlocks(p.ID(), producer.ID(), p.Chain().Height()+1)
			}
		}
	}
	net.Drain()
	for i, p := range peers {
		if p.Chain().Height() != producer.Chain().Height() {
			t.Errorf("peer %d height %d != producer %d", i+1, p.Chain().Height(), producer.Chain().Height())
		}
	}
}

func TestDuplicateGossipCounted(t *testing.T) {
	f := newFixture(t, Config{Mode: ModeGeth})
	tx := f.owner.SignTx(&types.Transaction{
		Nonce: 0, To: contractAddr, GasPrice: 1, GasLimit: 50_000,
		Data: types.EncodeCall(asm.SelSet, types.FlagHead, types.ZeroWord, types.ZeroWord),
	})
	f.nodes[0].HandleTx(2, tx)
	f.nodes[0].HandleTx(3, tx) // duplicate
	st := f.nodes[0].Stats()
	if st.TxSeen != 2 || st.TxRejected != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestModeString(t *testing.T) {
	if ModeGeth.String() != "geth" || ModeSereth.String() != "sereth" {
		t.Error("mode strings wrong")
	}
}

func TestSubmitTxsBatchGossip(t *testing.T) {
	f := newFixture(t,
		Config{Mode: ModeGeth, Miner: MinerBaseline},
		Config{Mode: ModeGeth},
		Config{Mode: ModeSereth},
	)
	// A batch of chained sets plus one invalid (unregistered-signer) tx:
	// the valid ones must be admitted and gossiped, the invalid one
	// reported without aborting the batch.
	mallory := wallet.NewKey("mallory") // not registered
	prev := types.ZeroWord
	var txs []*types.Transaction
	for i := 0; i < 4; i++ {
		v := types.WordFromUint64(uint64(i + 5))
		flag := types.FlagChain
		if i == 0 {
			flag = types.FlagHead
		}
		txs = append(txs, f.owner.SignTx(&types.Transaction{
			Nonce:    uint64(i),
			To:       contractAddr,
			GasPrice: 10,
			GasLimit: 300_000,
			Data:     types.EncodeCall(asm.SelSet, flag, prev, v),
		}))
		prev = types.NextMark(prev, v)
	}
	bad := mallory.SignTx(&types.Transaction{Nonce: 0, To: contractAddr, GasPrice: 10, GasLimit: 21_000})
	txs = append(txs, bad)

	if err := f.nodes[1].SubmitTxs(txs); err == nil {
		t.Fatal("invalid batch member not reported")
	}
	f.net.AdvanceTo(10)
	for i, n := range f.nodes {
		for j, tx := range txs[:4] {
			if !n.Pool().Has(tx.Hash()) {
				t.Errorf("node %d missing batched tx %d", i+1, j)
			}
		}
		if n.Pool().Has(bad.Hash()) {
			t.Errorf("node %d admitted the invalid tx", i+1)
		}
	}
	// Receiving peers saw the admitted remainder as one batched envelope
	// (the invalid member was filtered at the submitting pool and never
	// hit the wire).
	for _, idx := range []int{0, 2} {
		st := f.nodes[idx].Stats()
		if st.TxSeen != 4 || st.TxRejected != 0 {
			t.Errorf("node %d stats = %+v, want TxSeen=4 TxRejected=0", idx+1, st)
		}
	}
	// The batch must be minable: the miner's next block includes them.
	block, err := f.nodes[0].MineAndBroadcast(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 4 {
		t.Errorf("mined %d txs, want 4", len(block.Txs))
	}
}

// forgedBlock is what a forger peer can send for free: any number, an
// unknown parent, no seal, no body.
func forgedBlock(number uint64) *types.Block {
	return &types.Block{Header: &types.Header{Number: number, ParentHash: types.Hash{0xf0, byte(number), byte(number >> 8)}}}
}

func (n *Node) bufferSizes() (orphans, fork int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.orphans), len(n.fork)
}

// TestForgedFutureBlocksStayBounded: blocks numbered ahead of the head
// are buffered before anything in them is checked, keyed by the number
// the sender chose, so a forger must not be able to grow the buffers
// past the catch-up window — and a flooded node must still sync.
// (At height 0 every forged number lands in orphans;
// TestForgedPastBlocksStayBounded covers the fork buffer.)
func TestForgedFutureBlocksStayBounded(t *testing.T) {
	f := newFixture(t,
		Config{Mode: ModeGeth, Miner: MinerBaseline},
		Config{Mode: ModeGeth},
	)
	producer, victim := f.nodes[0], f.nodes[1]
	const forger = p2p.PeerID(99)
	for i := uint64(0); i < 10_000; i++ {
		victim.HandleBlock(forger, forgedBlock(2+i))
	}
	if orphans, _ := victim.bufferSizes(); orphans > bufferWindow+1 {
		t.Fatalf("10000 forged blocks left %d orphans buffered; bound is %d", orphans, bufferWindow+1)
	}

	// The flooded node still catches up over the real chain: it misses
	// block 1, is handed block 2 out of order, requests the gap.
	if _, err := producer.SubmitSet(f.owner, 0, contractAddr, types.FlagHead, types.ZeroWord, types.WordFromUint64(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := producer.MineAndBroadcast(15); err != nil {
		t.Fatal(err)
	}
	block2, err := producer.MineAndBroadcast(30)
	if err != nil {
		t.Fatal(err)
	}
	victim.HandleBlock(producer.ID(), block2)
	f.net.Drain()
	if victim.Chain().Head().Hash() != producer.Chain().Head().Hash() {
		t.Fatalf("flooded node at height %d did not converge on the producer's head %d", victim.Chain().Height(), producer.Chain().Height())
	}
	if orphans, _ := victim.bufferSizes(); orphans > bufferWindow+1 {
		t.Fatalf("%d orphans buffered after sync", orphans)
	}
}

// TestForkImportPrunesCandidates: once a competing branch is adopted,
// fork candidates numbered at or below its attach point are dropped —
// a forger's low-numbered fill does not outlive the reorg.
func TestForkImportPrunesCandidates(t *testing.T) {
	f := newFixture(t,
		Config{Mode: ModeGeth, Miner: MinerBaseline},
		Config{Mode: ModeGeth, Miner: MinerBaseline},
	)
	a, b := f.nodes[0], f.nodes[1]
	mineBlocks(t, f, a, 3) // common prefix, gossiped to b
	if b.Chain().Height() != 3 {
		t.Fatalf("b height %d, want 3", b.Chain().Height())
	}

	// Partition: a extends by one block, b by two.
	f.net.SetPartition([][]p2p.PeerID{{a.ID()}, {b.ID()}})
	if _, err := a.MineAndBroadcast(f.net.Now() + 15); err != nil {
		t.Fatal(err)
	}
	var tip *types.Block
	for i := 0; i < 2; i++ {
		var err error
		if tip, err = b.MineAndBroadcast(f.net.Now() + 16 + uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	f.net.Drain()
	f.net.ClearPartition()

	// A forger fills a's candidate buffer below the branch point.
	for _, num := range []uint64{1, 2, 3} {
		a.HandleBlock(99, forgedBlock(num))
	}
	if _, fork := a.bufferSizes(); fork != 3 {
		t.Fatalf("fork candidates = %d, want the 3 forged ones", fork)
	}

	// b's tip reaches a: back-walk to the branch point, reorg.
	a.HandleBlock(b.ID(), tip)
	f.net.Drain()
	if a.Chain().Head().Hash() != tip.Hash() {
		t.Fatalf("a at height %d did not adopt b's longer branch", a.Chain().Height())
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for num := range a.fork {
		if num <= 3 {
			t.Errorf("fork candidate %d at or below the attach point survived the reorg", num)
		}
	}
}

// TestCatchUpBeyondOrphanWindow: a peer further behind than the orphan
// window is handed only the tip — a block too far ahead to buffer — on a
// chain that then stays quiet. Catch-up must keep re-requesting after
// each capped batch until it reaches the advertised height.
func TestCatchUpBeyondOrphanWindow(t *testing.T) {
	f := newFixture(t,
		Config{Mode: ModeGeth, Miner: MinerBaseline},
		Config{Mode: ModeGeth},
	)
	producer, lagger := f.nodes[0], f.nodes[1]
	f.net.SetPartition([][]p2p.PeerID{{producer.ID()}, {lagger.ID()}})
	const gap = bufferWindow + maxSyncBatch/2 + 60 // 700: three batches
	var tip *types.Block
	for i := uint64(1); i <= gap; i++ {
		var err error
		if tip, err = producer.MineAndBroadcast(i); err != nil {
			t.Fatal(err)
		}
	}
	f.net.Drain()
	f.net.ClearPartition()
	if lagger.Chain().Height() != 0 {
		t.Fatalf("partitioned lagger at height %d", lagger.Chain().Height())
	}

	lagger.HandleBlock(producer.ID(), tip)
	f.net.Drain()
	if lagger.Chain().Head().Hash() != tip.Hash() {
		t.Fatalf("lagger stalled at height %d of %d", lagger.Chain().Height(), gap)
	}
	if orphans, _ := lagger.bufferSizes(); orphans != 0 {
		t.Errorf("%d orphans left after catch-up", orphans)
	}
}

// TestForgedPastBlocksStayBounded: blocks numbered at or below head+1
// with an unknown parent are fork candidates, buffered as unverified as
// orphans. A forger flooding every such number must leave no more than
// the reorg window buffered, and ordinary imports must keep pruning what
// falls out of it.
func TestForgedPastBlocksStayBounded(t *testing.T) {
	f := newFixture(t, Config{Mode: ModeGeth, Miner: MinerBaseline})
	victim := f.nodes[0]
	const height = bufferWindow + 200
	for i := uint64(1); i <= height; i++ {
		if _, err := victim.MineAndBroadcast(i); err != nil {
			t.Fatal(err)
		}
	}
	flood := func() {
		for num := uint64(1); num <= victim.Chain().Height()+1; num++ {
			victim.HandleBlock(99, forgedBlock(num))
		}
	}
	flood()
	if _, fork := victim.bufferSizes(); fork == 0 || fork > bufferWindow+2 {
		t.Fatalf("%d forged blocks left %d fork candidates buffered; want 1..%d", height+1, fork, bufferWindow+2)
	}

	// The head advances by ordinary imports: candidates that fall out of
	// the window go, whether or not another fork block ever arrives.
	for i := uint64(1); i <= 100; i++ {
		if _, err := victim.MineAndBroadcast(height + i); err != nil {
			t.Fatal(err)
		}
	}
	victim.mu.Lock()
	for num := range victim.fork {
		if num+bufferWindow < victim.chain.Height() {
			t.Errorf("fork candidate %d survived %d blocks below the head", num, victim.chain.Height()-num)
		}
	}
	victim.mu.Unlock()
	flood()
	if _, fork := victim.bufferSizes(); fork > bufferWindow+2 {
		t.Fatalf("second flood left %d fork candidates buffered; bound is %d", fork, bufferWindow+2)
	}
}

// TestMineAndBroadcastExecutesOnce: a mining node's own import adopts the
// execution the block was built from, so mining and importing a block
// costs one build plus the few digests of adoption (block hashes, the
// pool's settling) — not a build and a replay. The body is a chain of 30
// sets; the same build is measured first through BuildBlock, which leaves
// chain and pool as they were (once before that to warm the signature
// verdicts the first execution caches on the pooled transactions).
func TestMineAndBroadcastExecutesOnce(t *testing.T) {
	f := newFixture(t, Config{Mode: ModeSereth, Miner: MinerSemantic})
	n := f.nodes[0]
	prev := types.ZeroWord
	for i := uint64(0); i < 30; i++ {
		value := types.WordFromUint64(100 + i)
		flag := types.FlagChain
		if i == 0 {
			flag = types.FlagHead
		}
		if _, err := n.SubmitSet(f.owner, i, contractAddr, flag, prev, value); err != nil {
			t.Fatal(err)
		}
		prev = types.NextMark(prev, value)
	}
	if _, err := n.miner.BuildBlock(15); err != nil {
		t.Fatal(err)
	}
	before := keccak.Invocations()
	if _, err := n.miner.BuildBlock(15); err != nil {
		t.Fatal(err)
	}
	build := keccak.Invocations() - before
	before = keccak.Invocations()
	block, err := n.MineAndBroadcast(15)
	if err != nil {
		t.Fatal(err)
	}
	mine := keccak.Invocations() - before
	if len(block.Txs) != 30 || n.Chain().Height() != 1 {
		t.Fatalf("mined %d txs to height %d, want 30 to 1", len(block.Txs), n.Chain().Height())
	}
	for i, r := range n.Chain().Receipts(block.Hash()) {
		if r.Status != types.StatusSucceeded {
			t.Fatalf("tx %d failed", i)
		}
	}
	t.Logf("build %d digests, mine and import %d", build, mine)
	if mine > build+10 {
		t.Fatalf("mining and importing cost %d digests against %d for the build alone: the import replayed", mine, build)
	}
}

// TestSettleRacesAdmissionsAndViews mines and settles block after block
// while one goroutine admits the owner's next sets and another reads
// snapshots and views. A transaction admitted between a build's snapshot
// and its settle is behind the pool's settled mark, above the new account
// nonce, and must survive to the next block: in the end every set is
// mined and the pool is empty. Run under -race (make order-smoke).
func TestSettleRacesAdmissionsAndViews(t *testing.T) {
	f := newFixture(t, Config{Mode: ModeSereth, Miner: MinerSemantic})
	n := f.nodes[0]
	const sets = 300
	txs := make([]*types.Transaction, sets)
	prev := types.ZeroWord
	for i := range txs {
		value := types.WordFromUint64(uint64(100 + i))
		txs[i] = f.owner.SignTx(&types.Transaction{
			Nonce: uint64(i), To: contractAddr, GasPrice: 10, GasLimit: 300_000,
			Data: types.EncodeCall(asm.SelSet, types.FlagChain, prev, value),
		})
		prev = types.NextMark(prev, value)
	}
	admitted := make(chan struct{})
	go func() {
		defer close(admitted)
		for _, tx := range txs {
			if _, err := n.Pool().Admit(tx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	reads := make(chan struct{})
	go func() {
		defer close(reads)
		for {
			select {
			case <-admitted:
				return
			default:
				n.Pool().Snapshot()
				n.ViewAMV(types.Address{}, contractAddr)
			}
		}
	}()
	mine := func(ts uint64) {
		if _, err := n.MineAndBroadcast(ts); err != nil {
			t.Fatal(err)
		}
	}
	ts := uint64(1)
	for done := false; !done; ts++ {
		select {
		case <-admitted:
			done = true
		default:
		}
		mine(ts)
	}
	<-reads
	// The pool must drain within 1000 blocks of the last admission, however
	// many were mined while the admitting goroutine waited for a CPU.
	for last := ts + 1000; n.Pool().Len() > 0 && ts < last; ts++ {
		mine(ts)
	}
	var nonce uint64
	n.Chain().ReadState(func(st *statedb.StateDB) { nonce = st.GetNonce(f.owner.Address()) })
	t.Logf("%d sets in %d blocks", nonce, n.Chain().Height())
	if n.Pool().Len() != 0 || nonce != sets {
		t.Fatalf("%d of %d sets mined, %d still pending", nonce, sets, n.Pool().Len())
	}
}

// TestCallReadOnlyResultOutlivesTheMachine: a machine's return data
// lives in a buffer the machine reuses, and CallReadOnly's machine goes
// back to the evm package's pool when it returns, so the result it hands
// out must be a copy. On a Geth node get() and mark() return the words
// they are called with; a result kept across later calls — on the same
// pooled machine, returning other bytes — still holds its own.
func TestCallReadOnlyResultOutlivesTheMachine(t *testing.T) {
	n := newFixture(t, Config{Mode: ModeGeth, Miner: MinerBaseline}).nodes[0]
	call := func(sel types.Selector, w types.Word) evm.Result {
		return n.CallReadOnly(types.Address{}, contractAddr, types.EncodeCall(sel, types.FlagHead, w, w))
	}
	want := types.WordFromUint64(5)
	kept := call(asm.SelGet, want)
	for i := uint64(0); i < 10; i++ {
		if res := call(asm.SelMark, types.WordFromUint64(100+i)); res.ReturnWord() != types.WordFromUint64(100+i) {
			t.Fatalf("call %d returned %x", i, res.ReturnData)
		}
	}
	if !kept.Succeeded() || kept.ReturnWord() != want {
		t.Fatalf("a kept result reads %x (%v), it was returned %x", kept.ReturnData, kept.Err, want)
	}
}

// TestCallReadOnlyRacesImportAndMining: eight goroutines read mark() and
// get() through CallReadOnly and ViewAMV — each call takes a machine from
// the evm package's pool and gives it back — while the same node mines
// its own blocks and imports its peer's, whose Process takes and returns
// machines and journals of its own. Every read must succeed and see a
// mark and a value of the chain of sets. Run under -race (make
// state-smoke).
func TestCallReadOnlyRacesImportAndMining(t *testing.T) {
	f := newFixture(t,
		Config{Mode: ModeSereth, Miner: MinerSemantic},
		Config{Mode: ModeSereth, Miner: MinerSemantic},
	)
	n, peer := f.nodes[0], f.nodes[1]
	const sets = 60
	marks := map[types.Word]types.Word{types.ZeroWord: types.ZeroWord} // mark -> the value it commits to
	values := map[types.Word]bool{types.ZeroWord: true}
	txs := make([]*types.Transaction, sets)
	prev := types.ZeroWord
	for i := range txs {
		value := types.WordFromUint64(uint64(100 + i))
		txs[i] = f.owner.SignTx(&types.Transaction{
			Nonce: uint64(i), To: contractAddr, GasPrice: 10, GasLimit: 300_000,
			Data: types.EncodeCall(asm.SelSet, types.FlagChain, prev, value),
		})
		prev = types.NextMark(prev, value)
		marks[prev], values[value] = value, true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			caller := types.Address{19: byte(r + 1)}
			for reads := 0; ; reads++ {
				select {
				case <-stop:
					return
				default:
				}
				if reads%2 == r%2 {
					res := n.CallReadOnly(caller, contractAddr, types.EncodeCall(asm.SelGet, types.ZeroWord, types.ZeroWord, types.ZeroWord))
					if !res.Succeeded() {
						t.Errorf("reader %d: get(): %v", r, res.Err)
						return
					}
					continue
				}
				// mark() and get() are augmented one after the other, so a
				// set admitted between them may part the two: each must be
				// of the chain, not both of one link.
				_, mark, value := n.ViewAMV(caller, contractAddr)
				if _, ok := marks[mark]; !ok || !values[value] {
					t.Errorf("reader %d: view (mark %x, value %x) is not of the chain of sets", r, mark, value)
					return
				}
			}
		}(r)
	}
	// One set a block, mined alternately here and at the peer, whose
	// block this node then imports.
	for i, tx := range txs {
		if err := n.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		f.net.AdvanceTo(f.net.Now() + 20)
		miner := n
		if i%2 == 1 {
			miner = peer
		}
		if _, err := miner.MineAndBroadcast(f.net.Now() + 1); err != nil {
			t.Fatal(err)
		}
		f.net.AdvanceTo(f.net.Now() + 20)
	}
	close(stop)
	wg.Wait()
	if h := n.Chain().Height(); h != sets {
		t.Fatalf("height %d after %d blocks", h, sets)
	}
	if _, mark, value := n.ViewAMV(types.Address{}, contractAddr); mark != prev || value != marks[prev] {
		t.Fatalf("final view (mark %x, value %x), want (%x, %x)", mark, value, prev, marks[prev])
	}
}

// TestSubmitDigestBudget counts, not times, what one market transaction
// costs a 3-node mesh from the client's signature to its last delivery:
// two digests at the client (signing digest, signature), five at the
// origin (signing digest, signature check, identity hash, mark,
// mark-check digest) and none at either recipient, which admit the
// origin's frozen, flagged instance — seven, each derived once. (Nine
// while the origin verified the caller's instance, froze a copy and
// derived the signing digest again, and the first recipient checked the
// signature once more.) One by one through SubmitTx, then as a batch
// through SubmitTxs; readings at each delivery come from the network's
// trace hook, which fires before the recipient's handler runs.
func TestSubmitDigestBudget(t *testing.T) {
	f := newFixture(t,
		Config{Mode: ModeSereth, Miner: MinerSemantic},
		Config{Mode: ModeSereth},
		Config{Mode: ModeGeth},
	)
	var deliveries []uint64
	f.net.Trace(func(p2p.TraceEvent) { deliveries = append(deliveries, keccak.Invocations()) })

	// The owner's chain of five sets, unsigned: linking them hashes each
	// mark, which is the test's cost and not the client's.
	var unsigned []*types.Transaction
	prev := types.ZeroWord
	for nonce := uint64(0); nonce < 5; nonce++ {
		value := types.WordFromUint64(100 + nonce)
		flag := types.FlagChain
		if nonce == 0 {
			flag = types.FlagHead
		}
		unsigned = append(unsigned, &types.Transaction{
			Nonce: nonce, To: contractAddr, GasPrice: 10, GasLimit: 300_000,
			Data: types.EncodeCall(asm.SelSet, flag, prev, value),
		})
		prev = types.NextMark(prev, value)
	}
	// budget runs sign, submit and the deliveries of n transactions and
	// checks each stage's digests per transaction.
	budget := func(name string, n uint64, sign func(), submit func() error) {
		t.Helper()
		deliveries = deliveries[:0]
		start := keccak.Invocations()
		sign()
		signed := keccak.Invocations()
		if err := submit(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		submitted := keccak.Invocations()
		f.net.AdvanceTo(f.net.Now() + 10)
		end := keccak.Invocations()
		if len(deliveries) != 2 {
			t.Fatalf("%s: %d deliveries, want one to each of the two other peers", name, len(deliveries))
		}
		client, origin := signed-start, submitted-signed
		first, second := deliveries[1]-deliveries[0], end-deliveries[1]
		t.Logf("%s, digests per transaction: client %d, origin %d, first recipient %d, second recipient %d",
			name, client/n, origin/n, first/n, second/n)
		if first != 0 || second != 0 {
			t.Errorf("%s: recipients derived %d and %d digests, want 0", name, first, second)
		}
		if total := end - start; total > 7*n {
			t.Errorf("%s: %d digests for %d market transactions, want at most 7 each", name, total, n)
		}
	}

	budget("SubmitTx", 1, func() { f.owner.SignTx(unsigned[0]) },
		func() error { return f.nodes[0].SubmitTx(unsigned[0]) })
	budget("SubmitTxs", 4, func() {
		for _, tx := range unsigned[1:] {
			f.owner.SignTx(tx)
		}
	}, func() error { return f.nodes[0].SubmitTxs(unsigned[1:]) })
	for i, n := range f.nodes {
		if n.Pool().Len() != 5 {
			t.Errorf("node %d holds %d of the 5 transactions", i+1, n.Pool().Len())
		}
	}
}
