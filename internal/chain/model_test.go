package chain

import (
	"bytes"
	"errors"
	"fmt"
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

// modelKV is the key-value contract the chain model writes through.
var modelKV = types.Address{19: 0xd1}

// modelSlots is the slot universe the model's writes draw from: enough
// that the contract's storage trie is three levels deep, few enough that
// blocks overwrite and clear one another's slots.
const modelSlots = 256

// modelSyncEvery is the chain's SyncEvery in the model: a crash keeps
// the blocks up to the last multiple of it and some of what follows.
const modelSyncEvery = 3

// modelBlock is what the model knows of a block it built: the slot
// values of its post state, the writer's next nonce after it, the post
// state itself, executed by the model's own processor apart from the
// chain under test and its store, to build children on, and the
// receipts of that execution. inner marks a block a fork branch held
// below its tip.
type modelBlock struct {
	block    *types.Block
	hash     types.Hash
	slots    map[types.Word]types.Word
	nonce    uint64
	post     *statedb.StateDB
	receipts []*types.Receipt
	inner    bool
}

// chainModel is what the chain under test must hold: canon is the
// canonical chain from genesis, and floor the height below which a
// crash may not take the head (a multiple of modelSyncEvery the chain
// synced at). The store holds the state of every canonical block, so a
// fork may attach anywhere above genesis: within the chain's window of
// post states or, below it, through a parent the chain reopens from the
// store.
type chainModel struct {
	t        *testing.T
	rng      *rand.Rand
	writer   *wallet.Key
	proc     *Processor
	gasLimit uint64
	built    map[types.Hash]*modelBlock
	canon    []*modelBlock
	floor    uint64
}

func (m *chainModel) head() *modelBlock { return m.canon[len(m.canon)-1] }

// body draws the transactions of a child of parent — puts of random
// values to random slots, a quarter of them clearing the slot — and
// returns them with the slot values they leave.
func (m *chainModel) body(parent *modelBlock) ([]*types.Transaction, map[types.Word]types.Word) {
	slots := maps.Clone(parent.slots)
	txs := make([]*types.Transaction, m.rng.Intn(12))
	for i := range txs {
		slot := types.WordFromUint64(uint64(m.rng.Intn(modelSlots)))
		var value types.Word
		if m.rng.Intn(4) != 0 {
			value = types.WordFromUint64(m.rng.Uint64() | 1)
			slots[slot] = value
		} else {
			delete(slots, slot)
		}
		txs[i] = m.writer.SignTx(&types.Transaction{
			Nonce:    parent.nonce + uint64(i),
			To:       modelKV,
			GasPrice: 10,
			GasLimit: 100_000,
			Data:     types.EncodeCall(asm.SelPut, slot, value),
		})
	}
	return txs, slots
}

// header returns the unsealed header of a child of parent; the random
// time keeps sibling branches apart even when their bodies are empty.
func (m *chainModel) header(parent *modelBlock) *types.Header {
	return &types.Header{
		ParentHash: parent.hash,
		Number:     parent.block.Number() + 1,
		GasLimit:   m.gasLimit,
		Time:       parent.block.Header.Time + 1 + uint64(m.rng.Intn(30)),
	}
}

// execute runs a child of parent on the model's processor, fills
// header's claims from it unless they are filled already (a block the
// chain built), and records the block.
func (m *chainModel) execute(parent *modelBlock, header *types.Header, txs []*types.Transaction, slots map[types.Word]types.Word) *modelBlock {
	m.t.Helper()
	res, err := m.proc.Process(parent.post, header, txs)
	if err != nil {
		m.t.Fatalf("model execution of block %d: %v", header.Number, err)
	}
	for _, r := range res.Receipts {
		if r.Status != types.StatusSucceeded {
			m.t.Fatalf("a put failed in block %d", header.Number)
		}
	}
	block := &types.Block{Header: header, Txs: txs}
	if header.StateRoot == (types.Hash{}) {
		header.TxRoot = block.TxRoot()
		header.ReceiptRoot, header.StateRoot, header.GasUsed = res.ReceiptRoot, res.StateRoot, res.GasUsed
	} else if header.StateRoot != res.StateRoot || header.ReceiptRoot != res.ReceiptRoot {
		m.t.Fatalf("block %d: the chain's build and the model's execution disagree", header.Number)
	}
	mb := &modelBlock{block: block, hash: block.Hash(), slots: slots, nonce: parent.nonce + uint64(len(txs)), post: res.Post, receipts: res.Receipts}
	m.built[mb.hash] = mb
	return mb
}

// child builds a block on parent with the model's processor.
func (m *chainModel) child(parent *modelBlock) *modelBlock {
	txs, slots := m.body(parent)
	return m.execute(parent, m.header(parent), txs, slots)
}

// branch builds n blocks on parent.
func (m *chainModel) branch(parent *modelBlock, n int) []*modelBlock {
	out := make([]*modelBlock, n)
	for i := range out {
		out[i] = m.child(parent)
		parent = out[i]
	}
	return out
}

// adopted records mb as the chain's new head, with its state committed.
func (m *chainModel) adopted(mb *modelBlock) {
	m.canon = append(m.canon, mb)
	if mb.block.Number()%modelSyncEvery == 0 {
		m.floor = mb.block.Number()
	}
}

// forked records the switch to a branch whose first block is not
// canonical and sits at height attach. The chain writes the branch in
// one batch, synced if the branch holds a multiple of modelSyncEvery;
// a crash keeps all of it or none.
func (m *chainModel) forked(attach uint64, branch []*modelBlock) {
	m.canon = append(m.canon[:attach], branch...)
	for _, mb := range branch[:len(branch)-1] {
		mb.inner = true
	}
	if tip := branch[len(branch)-1].block.Number(); tip-tip%modelSyncEvery >= attach {
		m.floor = tip
	}
}

// grow has the model build n blocks on its head and every chain adopt
// them.
func (m *chainModel) grow(n int, chains ...*Chain) {
	m.t.Helper()
	for range n {
		mb := m.child(m.head())
		for _, c := range chains {
			if _, err := c.InsertBlock(mb.block); err != nil {
				m.t.Fatalf("insert %d: %v", mb.block.Number(), err)
			}
		}
		m.adopted(mb)
	}
}

// fork has the model build a branch on the canonical block parent, one
// block higher than the head. The chains have not seen it.
func (m *chainModel) fork(parent uint64) []*modelBlock {
	return m.branch(m.canon[parent], int(m.head().block.Number()-parent)+1)
}

// follow has every chain import branch as a fork, checks that each
// switched to it as the model says — orphaning the blocks above its
// parent, with the model's receipts for every branch block — and records
// the switch.
func (m *chainModel) follow(branch []*modelBlock, chains ...*Chain) {
	m.t.Helper()
	parent := branch[0].block.Number() - 1
	depth := int(m.head().block.Number() - parent)
	for _, c := range chains {
		orphaned, err := c.ImportFork(blocksOf(branch))
		if err != nil {
			m.t.Fatalf("a fork %d deep: %v", depth, err)
		}
		if orphaned != depth {
			m.t.Fatalf("a fork %d deep orphaned %d blocks", depth, orphaned)
		}
		m.receiptsMatch(c, branch)
	}
	m.forked(parent+1, branch)
}

func blocksOf(mbs []*modelBlock) []*types.Block {
	out := make([]*types.Block, len(mbs))
	for i, mb := range mbs {
		out[i] = mb.block
	}
	return out
}

// receiptsMatch fails the test unless c holds the model's receipts for
// every block of branch.
func (m *chainModel) receiptsMatch(c *Chain, branch []*modelBlock) {
	m.t.Helper()
	for _, mb := range branch {
		got := c.Receipts(mb.hash)
		if len(got) != len(mb.receipts) || types.DeriveReceiptRoot(got) != types.DeriveReceiptRoot(mb.receipts) {
			m.t.Fatalf("fork block %d: the chain's receipts differ from the model's", mb.block.Number())
		}
	}
}

// reopened takes the chain c opened from the store as the canonical one.
// It must start at genesis, and every block it holds must be one the
// model built; after a crash, the head may be any of them at or above
// the floor.
func (m *chainModel) reopened(c *Chain, crashed bool) {
	m.t.Helper()
	head := c.Head()
	if !crashed && head.Hash() != m.head().hash {
		m.t.Fatalf("a clean reopen came back at %d, the model's head is %d", head.Number(), m.head().block.Number())
	}
	if head.Number() < m.floor {
		m.t.Fatalf("a crash took the head to %d, below the synced block %d", head.Number(), m.floor)
	}
	if c.Base() != 0 {
		m.t.Fatalf("the reopened chain starts at block %d, head %d", c.Base(), head.Number())
	}
	m.canon = m.canon[:0]
	for n := c.Base(); n <= head.Number(); n++ {
		mb, ok := m.built[c.BlockByNumber(n).Hash()]
		if !ok {
			m.t.Fatalf("the reopened chain holds block %d, which the model never built", n)
		}
		m.canon = append(m.canon, mb)
	}
	m.floor = head.Number() // a reopened log is on disk in full
}

// check compares the chain under test with the model: its blocks, the
// head state's slots and nonce, a walk of the head state in the store kv
// (nil for a memory chain), and an export of it that verifies on its
// own.
func (m *chainModel) check(c *Chain, kv store.Store) {
	m.t.Helper()
	if got, want := c.Height(), m.head().block.Number(); got != want {
		m.t.Fatalf("height %d, model %d", got, want)
	}
	for n := c.Base(); n <= c.Height(); n++ {
		if got := c.BlockByNumber(n).Hash(); got != m.canon[n].hash {
			m.t.Fatalf("block %d is %s, model %s", n, got.Hex(), m.canon[n].hash.Hex())
		}
	}
	head := m.head()
	c.ReadState(func(st *statedb.StateDB) {
		for i := uint64(0); i < modelSlots; i++ {
			slot := types.WordFromUint64(i)
			if got, want := st.GetState(modelKV, slot), head.slots[slot]; got != want {
				m.t.Fatalf("head %d: slot %d holds %x, model %x", head.block.Number(), i, got, want)
			}
		}
		if got := st.GetNonce(m.writer.Address()); got != head.nonce {
			m.t.Fatalf("head %d: writer nonce %d, model %d", head.block.Number(), got, head.nonce)
		}
	})
	root := head.block.Header.StateRoot
	if kv != nil {
		if err := statedb.VerifyState(kv, root); err != nil {
			m.t.Fatalf("head %d: the store does not hold its state: %v", head.block.Number(), err)
		}
	}
	snap := store.NewMem()
	if err := c.Export(snap); err != nil {
		m.t.Fatalf("export: %v", err)
	}
	if err := statedb.VerifyState(snap, root); err != nil {
		m.t.Fatalf("head %d: the export does not hold its state: %v", head.block.Number(), err)
	}
}

// swept checks the store of a chain that has just swept it: the state
// of every canonical block the model knows is whole in it. The model's
// chains are shorter than the horizon, so a sweep drops only what
// orphaned branches and superseded nodes held.
func (m *chainModel) swept(kv store.Store) {
	m.t.Helper()
	for _, mb := range m.canon {
		if err := statedb.VerifyState(kv, mb.block.Header.StateRoot); err != nil {
			m.t.Fatalf("after a sweep, the state of block %d: %v", mb.block.Number(), err)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// modelGenesis returns a genesis state holding the model's key-value
// contract.
func modelGenesis() *statedb.StateDB {
	genesis := statedb.New()
	genesis.SetCode(modelKV, asm.KVStoreContract())
	return genesis
}

// newChainModel builds a chain with cfg over modelGenesis, and the model
// of it.
func newChainModel(t *testing.T, rng *rand.Rand, writer *wallet.Key, cfg Config) (*Chain, *chainModel) {
	genesis := modelGenesis()
	c := New(cfg, genesis)
	g := &modelBlock{block: c.Head(), hash: c.Head().Hash(), slots: map[types.Word]types.Word{}, post: genesis.Copy()}
	return c, &chainModel{
		t: t, rng: rng, writer: writer, proc: NewProcessor(cfg), gasLimit: cfg.GasLimit,
		built: map[types.Hash]*modelBlock{g.hash: g},
		canon: []*modelBlock{g},
	}
}

// TestChainModel drives seeded random sequences of what a chain is asked
// to do — import a block it replays, adopt a block it built, switch to a
// longer fork, refuse one that is not longer, sweep its store, reopen its
// datadir after a clean close, after a crash that drops part of the
// unsynced tail, after one that tears a reorg's write and after one
// that stops a sweep between its synced temp log and the rename, or
// right after the rename — against a list model of the
// canonical chain and the slot values of each block. The chain commits every adopted state to a FileStore, so
// its head state is in part in memory and in part read lazily through
// the store. A commit stages its records in map order, so where a crash
// cuts, and so the recovered head, differs from run to run; the model
// accepts every head its invariants allow. -short runs a slice.
func TestChainModel(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 80
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			runChainModel(t, seed, steps)
		})
	}
}

func runChainModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	reg := wallet.NewRegistry()
	writer := wallet.NewKey(fmt.Sprint("model-writer-", seed))
	reg.Register(writer)
	cfg := DefaultConfig()
	cfg.Registry = reg
	cfg.SyncEvery = modelSyncEvery

	dir := t.TempDir()
	var kv *store.FaultStore
	crashes, tornReorgs := 0, 0
	// openStore opens the datadir; tear arms a torn append at its first
	// write.
	openStore := func(tear bool) {
		fs, err := store.OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		pol := &store.FaultPolicy{Seed: seed*100 + int64(crashes), DropUnsyncedOnCrash: true}
		if tear {
			pol.TornAppendAtWrite = 1
		}
		kv = store.NewFault(fs, pol)
		cfg.Store = kv
	}
	openStore(false)
	defer func() { _ = kv.Close() }()

	c, m := newChainModel(t, rng, writer, cfg)
	// crashed reopens the chain after a crash.
	crashed := func(step int) {
		crashes++
		openStore(false)
		var err error
		if c, err = Open(cfg, kv); err != nil {
			t.Fatalf("step %d: open after a crash: %v", step, err)
		}
		m.reopened(c, true)
		m.check(c, kv)
	}

	forks, deep, deepInner, builds, sweeps, sweepCrashes, reclaimed := 0, 0, 0, 0, 0, 0, int64(0)
	tearReorg := false // the next step is a longer fork whose write tears
	for step := 0; step < steps; step++ {
		r := rng.Intn(100)
		if tearReorg {
			r = 55
		}
		switch {
		case r < 35: // a block the chain replays
			mb := m.child(m.head())
			if _, err := c.InsertBlock(mb.block); err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			}
			m.adopted(mb)
		case r < 55: // a block the chain built on its live head state
			parent := m.head()
			txs, slots := m.body(parent)
			header := m.header(parent)
			var res *ExecResult
			c.ReadHeadState(func(_ *types.Block, _ types.Hash, st *statedb.StateDB) {
				var err error
				if res, err = c.Process(st, header, txs); err != nil {
					t.Fatalf("step %d: build: %v", step, err)
				}
			})
			block := &types.Block{Header: header, Txs: txs}
			header.TxRoot = block.TxRoot()
			header.ReceiptRoot, header.StateRoot, header.GasUsed = res.ReceiptRoot, res.StateRoot, res.GasUsed
			mb := m.execute(parent, header, txs, slots)
			if _, err := c.InsertBuilt(mb.block, res); err != nil {
				t.Fatalf("step %d: insert built: %v", step, err)
			}
			if st := headState(c); st != res.Post {
				t.Fatalf("step %d: the chain replayed its own build", step)
			}
			m.adopted(mb)
			builds++
		case r < 72: // a longer fork; a shorter or equal one is refused
			height := m.head().block.Number()
			if height == 0 {
				continue
			}
			// Half the forks attach within the chain's window of post
			// states; the rest anywhere above genesis, mostly below the
			// window, where the chain reopens the parent from its store —
			// half of those through a block an earlier branch held below
			// its tip, which only a store holding every branch block's
			// state can reopen. Until one such fork has been followed,
			// every fork tries for one.
			kept := len(c.keptPostRoots())
			attach := 1 + uint64(rng.Int63n(int64(height)))
			pick := rng.Intn(4)
			if deepInner == 0 {
				pick = 2
			}
			switch pick {
			case 0, 1:
				attach = height - uint64(rng.Intn(max(kept, 1)))
			case 2:
				var inner []uint64
				for a := uint64(1); a+uint64(kept) <= height; a++ {
					if m.canon[a-1].inner {
						inner = append(inner, a)
					}
				}
				if len(inner) > 0 {
					attach = inner[rng.Intn(len(inner))]
				}
			}
			longer := tearReorg || rng.Intn(4) != 0
			n := int(height-attach) + 1 // as high as the head
			if longer {
				n += 1 + rng.Intn(2)
			}
			branch := m.branch(m.canon[attach-1], n)
			blocks := make([]*types.Block, n)
			for i, mb := range branch {
				blocks[i] = mb.block
			}
			orphaned, err := c.ImportFork(blocks)
			if tearReorg {
				if !errors.Is(err, store.ErrCrashed) {
					t.Fatalf("step %d: a torn reorg returned %v", step, err)
				}
				tearReorg = false
				tornReorgs++
				crashed(step)
				continue
			}
			// A block of the branch that is the canonical one at its height
			// (an empty body drawn at the same time) is skipped, not
			// orphaned.
			diverge := attach
			for i := 0; i < n && diverge <= height && branch[i].hash == m.canon[diverge].hash; i++ {
				diverge++
			}
			if !longer {
				if diverge > height {
					if err != nil || orphaned != 0 {
						t.Fatalf("step %d: a canonical run as a fork: %d orphaned, %v", step, orphaned, err)
					}
				} else if !errors.Is(err, ErrForkTooShort) || c.Head().Hash() != m.head().hash {
					t.Fatalf("step %d: a fork as high as the head: %v, head %d", step, err, c.Height())
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: fork at %d: %v", step, attach, err)
			}
			if want := int(height-diverge) + 1; orphaned != want {
				t.Fatalf("step %d: fork at %d orphaned %d blocks, want %d", step, attach, orphaned, want)
			}
			m.receiptsMatch(c, branch[diverge-attach:])
			if parent := m.canon[diverge-1]; height-parent.block.Number() > uint64(kept) {
				deep++
				if parent.inner {
					deepInner++
				}
			}
			m.forked(diverge, branch[diverge-attach:])
			forks++
		case r < 80:
			m.check(c, kv)
		case r < 86: // a sweep; half of them crash at its rename
			logPath := filepath.Join(dir, store.FileName)
			pre := readFile(t, logPath)
			stats, err := c.Sweep()
			if err != nil {
				t.Fatalf("step %d: sweep: %v", step, err)
			}
			sweeps, reclaimed = sweeps+1, reclaimed+stats.BytesBefore-stats.BytesAfter
			m.swept(kv)
			if sweepCrashes > 0 && rng.Intn(2) == 0 {
				continue
			}
			// The crash comes between the synced temp log and the rename,
			// which leaves both files — every crash until one has — or
			// right after the rename. The store reopens on one log or the
			// other, whole.
			want, early := readFile(t, logPath), sweepCrashes == 0 || rng.Intn(2) == 0
			kv.Crash()
			if early {
				writeFile(t, filepath.Join(dir, store.TmpFileName), want)
				writeFile(t, logPath, pre)
				want = pre
				sweepCrashes++
			}
			crashed(step)
			if !bytes.Equal(readFile(t, logPath), want) || kv.Salvage().TmpRemoved != early {
				t.Fatalf("step %d: a sweep crashed before the rename %v reopened on neither log whole (%+v)", step, early, kv.Salvage())
			}
		case r < 92: // a clean close and reopen
			// Half the time the store comes back armed to tear its first
			// write, and the next step is a reorg.
			tearReorg = m.head().block.Number() > 0 && rng.Intn(2) == 0
			if err := kv.Close(); err != nil {
				t.Fatalf("step %d: close: %v", step, err)
			}
			openStore(tearReorg)
			var err error
			if c, err = Open(cfg, kv); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			m.reopened(c, false)
			m.check(c, kv)
		default: // a crash that drops part of the unsynced tail
			kv.Crash()
			crashed(step)
		}
	}
	m.check(c, kv)
	t.Logf("%d steps: head %d, %d forks (%d below the window, %d of them through an earlier branch), %d own builds, %d crashes (%d tearing a reorg)",
		steps, c.Height(), forks, deep, deepInner, builds, crashes, tornReorgs)
	t.Logf("%d sweeps reclaiming %d bytes, %d of them stopped before the rename", sweeps, reclaimed, sweepCrashes)
	if forks == 0 || deep == 0 || deepInner == 0 || builds == 0 || crashes == 0 || tornReorgs == 0 || sweepCrashes == 0 {
		t.Fatalf("the run took %d forks, %d below the window, %d through an earlier branch, %d own builds and %d crashes, %d tearing a reorg and %d stopping a sweep: raise the steps",
			forks, deep, deepInner, builds, crashes, tornReorgs, sweepCrashes)
	}
}

// TestChainModelReorgHorizon takes a memory chain and a store-backed one
// to their reorg horizon against the list model: a fork that orphans 512
// blocks — the deepest a node buffers (node.bufferWindow) — validates
// from the oldest post state the memory chain keeps, and from a parent
// the store-backed chain reopens from its store, and both land where the
// model does; one that orphans one more is refused with ErrForkTooDeep,
// which a node reads as an unknown parent, leaving the chains as they
// were. Blocks past the first few are empty, which keeps the 1,500
// executions cheap.
func TestChainModelReorgHorizon(t *testing.T) {
	const horizon = 512
	reg := wallet.NewRegistry()
	writer := wallet.NewKey("model-writer-horizon")
	reg.Register(writer)
	cfg := DefaultConfig()
	cfg.Registry = reg
	c, m := newChainModel(t, rand.New(rand.NewSource(1)), writer, cfg)
	cfg.Store = store.NewMem()
	stored, _ := newChainModel(t, rand.New(rand.NewSource(1)), writer, cfg)
	chains := []*Chain{c, stored}

	// empty builds an empty child of parent; the header's random time
	// keeps it apart from its siblings.
	empty := func(parent *modelBlock) *modelBlock {
		return m.execute(parent, m.header(parent), nil, parent.slots)
	}
	for n := 1; n <= horizon+2; n++ {
		mb := empty(m.head())
		if n <= 3 {
			mb = m.child(m.head())
		}
		for _, c := range chains {
			if _, err := c.InsertBlock(mb.block); err != nil {
				t.Fatalf("insert %d: %v", n, err)
			}
		}
		m.adopted(mb)
	}
	height := m.head().block.Number()
	// branchOn builds a branch on block p: a block of puts, then empty
	// blocks up to one above the head.
	branchOn := func(p uint64) []*modelBlock {
		branch := []*modelBlock{m.child(m.canon[p])}
		for branch[len(branch)-1].block.Number() <= height {
			branch = append(branch, empty(branch[len(branch)-1]))
		}
		return branch
	}
	tooDeep := blocksOf(branchOn(height - horizon - 1))
	for _, c := range chains {
		orphaned, err := c.ImportFork(tooDeep)
		if !errors.Is(err, ErrForkTooDeep) || !errors.Is(err, ErrUnknownParent) {
			t.Fatalf("a fork %d deep: %v, want ErrForkTooDeep", horizon+1, err)
		}
		if c.Head().Hash() != m.head().hash || orphaned != 0 {
			t.Fatalf("a refused fork moved the chain to %d", c.Height())
		}
		m.check(c, nil)
	}
	if kept := len(stored.keptPostRoots()); kept != storeWindow {
		t.Fatalf("the store-backed chain keeps %d post states, want %d", kept, storeWindow)
	}
	m.follow(branchOn(height-horizon), chains...)
	m.check(c, nil)
	m.check(stored, cfg.Store)
}
