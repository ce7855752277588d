// Package chain implements the blockchain: block storage, the state
// transition function, and validation by transaction replay (paper
// §II-D). Failed transactions stay in their block and consume gas but
// leave no state effects — they count toward raw throughput and against
// state throughput.
package chain

import (
	"errors"
	"fmt"
	"sync"

	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// Chain errors.
var (
	ErrUnknownParent   = errors.New("chain: unknown parent block")
	ErrBadNumber       = errors.New("chain: non-sequential block number")
	ErrBadStateRoot    = errors.New("chain: state root mismatch after replay")
	ErrBadTxRoot       = errors.New("chain: transaction root mismatch")
	ErrBadReceiptRoot  = errors.New("chain: receipt root mismatch")
	ErrBadGasUsed      = errors.New("chain: gas-used mismatch")
	ErrBadSeal         = errors.New("chain: invalid proof-of-work seal")
	ErrBadSignature    = errors.New("chain: invalid transaction signature")
	ErrBadNonce        = errors.New("chain: invalid transaction nonce")
	ErrGasLimitReached = errors.New("chain: block gas limit exceeded")
	ErrForkTooShort    = errors.New("chain: competing chain does not exceed current head")
	// ErrForkTooDeep refuses a fork whose parent is below the reorg
	// horizon, or whose post state the chain neither keeps nor can reopen
	// from its store (see memoryWindow). It wraps ErrUnknownParent. A
	// node does not follow such a branch: it counts it in
	// Stats.ForksTooDeep and keeps what is below its horizon as final.
	ErrForkTooDeep = fmt.Errorf("%w: fork parent below the reorg horizon", ErrUnknownParent)
)

// The reorg horizon: a fork attaches at most memoryWindow blocks below
// the head, as deep as a node buffers fork blocks (node.bufferWindow).
// A chain without a store validates forks only from the post states it
// keeps, and keeps that many. A store-backed chain reopens older fork
// parents from its store and keeps only the head's parent, from which a
// rival to the head block validates; its sweep keeps the states within
// the horizon in the store.
const (
	memoryWindow = 512
	storeWindow  = 1
)

// Config parameterizes a chain instance.
type Config struct {
	// GasLimit is the per-block gas limit.
	GasLimit uint64
	// Difficulty gates the PoW seal; zero disables seal checking (the
	// experiments elect one sealer per block instead of racing nonces).
	Difficulty uint64
	// Registry verifies transaction signatures; nil skips verification.
	Registry *wallet.Registry
	// ExecCache, when set, shares validated block executions across every
	// chain wired to the same instance (the in-process peers of a
	// simulation): each block body is executed once — by its miner when
	// the miner adopts its own build, else by the first importer — and
	// every other importer verifies the header against the memoized roots
	// and adopts the memoized post state. A chain with a Store refuses
	// one: a post state another chain committed has its trie nodes marked
	// stored, so adopting it would leave them out of this chain's store.
	ExecCache *ExecCache
	// Parallel enables optimistic parallel intra-block execution
	// (ParallelProcessor): bodies of at least ParallelThreshold
	// transactions speculate on a worker pool and commit in order,
	// producing byte-identical receipts and roots. Off by default — the
	// sequential processor remains the reference semantics.
	Parallel bool
	// ParallelWorkers sizes the speculation pool; <= 0 means GOMAXPROCS.
	ParallelWorkers int
	// ParallelThreshold is the smallest body length executed in
	// parallel; <= 0 means DefaultParallelThreshold. Smaller bodies fall
	// back to the sequential path.
	ParallelThreshold int
	// Store, when set, persists the chain: every adopted block flushes
	// its dirty state-trie paths, body and head pointer into the store,
	// and Open recovers head state from it without replaying the chain.
	// nil keeps the chain fully in-memory (the default; η results are
	// bit-identical either way — persistence only mirrors what the
	// in-memory tries already committed to).
	Store store.Store
	// SyncEvery, with a Store attached, forces the store to stable
	// storage (Sync) after every Nth adopted block, bounding how much a
	// crash can lose to an unsynced tail. 0 never syncs explicitly
	// (Close still flushes).
	SyncEvery int
}

// DefaultConfig mirrors the paper's private-net parameterization: blocks
// large enough for O(10^1..10^2) transactions.
func DefaultConfig() Config {
	return Config{GasLimit: 10_000_000}
}

// Chain is an append-only blockchain with replay validation. Safe for
// concurrent use.
type Chain struct {
	cfg  Config
	proc *Processor
	// par is the optimistic parallel executor; nil unless cfg.Parallel.
	par *ParallelProcessor

	mu sync.RWMutex
	// blocks is the canonical chain as a dense slice: blocks[i] has
	// number base+i. base is 0 for chains grown from genesis and the
	// snapshot head's number for snapshot-bootstrapped chains, which
	// have no history below their snapshot point.
	base     uint64
	blocks   []*types.Block
	headHash types.Hash                     // the last block's hash, kept beside it
	receipts map[types.Hash][]types.Receipt // block hash -> receipts
	state    *statedb.StateDB               // post-head state
	// posts holds the post states of the canonical blocks right below the
	// head, oldest first: posts[len(posts)-d] is that of the block d below
	// the head, the parent a fork d deep is validated from. Its capacity
	// is the window (memoryWindow or storeWindow), and it never grows.
	// Post states are immutable once flushed and share with their parent
	// every trie node and storage slot the block did not write, so one
	// more costs what its block touched.
	posts         []*statedb.StateDB
	batch         store.Batch // the records of a persisted run, reused
	sweptAt       uint64      // the head at the last sweep, as the head record carries it
	written, kept int64       // log bytes persisted since, and kept by it
	sweepErr      error       // why the last sweep failed; nil if it did not
	watchers      []func(block *types.Block, hash types.Hash, receipts []types.Receipt, adopted bool)

	sweepMu sync.Mutex // held through a sweep; taken before mu
}

// historyDepth is the number of blocks a new chain's block list starts
// with room for. A Figure-2 run mines 18 blocks at most (nine cells at
// seeds 7000–7039), so its chains never grow the list; a longer chain
// grows it as it goes.
const historyDepth = 32

// New creates a chain whose genesis commits the given pre-state.
func New(cfg Config, genesisState *statedb.StateDB) *Chain {
	if genesisState == nil {
		genesisState = statedb.New()
	}
	state := genesisState.Copy()
	genesis := &types.Block{Header: &types.Header{
		Number:    0,
		StateRoot: state.Root(),
		GasLimit:  cfg.GasLimit,
	}}
	blocks := make([]*types.Block, 1, historyDepth)
	blocks[0] = genesis
	c := newChain(cfg, blocks, state)
	if cfg.Store != nil {
		// Persist genesis so a datadir created now recovers later even if
		// no block is ever adopted. The caller's instance may share nodes
		// another chain's commit marked stored, so Export's walk, blind to
		// the marks, stages genesis whole; its copy is then marked as
		// committed, so no block writes it again. Persist errors at
		// construction are deliberately fatal-by-panic: a node that
		// silently starts without its datadir would lose every block.
		err := state.Walk(make(map[types.Hash]struct{}), c.batch.Put)
		if err == nil {
			state.StageTo(new(store.Batch))
			state.Stored()
			err = c.persistLocked([]*types.Block{genesis}, []*statedb.StateDB{state})
		}
		if err != nil {
			panic(fmt.Sprintf("chain: persist genesis: %v", err))
		}
	}
	return c
}

// newChain assembles a chain over blocks (ascending, dense, at least
// one) whose last block's post state is state: the one place a Chain is
// built, for a fresh genesis and for a store alike.
func newChain(cfg Config, blocks []*types.Block, state *statedb.StateDB) *Chain {
	window := memoryWindow
	if cfg.Store != nil {
		if cfg.ExecCache != nil {
			panic("chain: a chain with a Store shares no execution: ExecCache must be nil")
		}
		window = storeWindow
	}
	c := &Chain{
		cfg:      cfg,
		proc:     NewProcessor(cfg),
		base:     blocks[0].Number(),
		blocks:   blocks,
		headHash: blocks[len(blocks)-1].Hash(),
		receipts: map[types.Hash][]types.Receipt{},
		state:    state,
		posts:    make([]*statedb.StateDB, 0, window),
		sweptAt:  blocks[len(blocks)-1].Number(),
	}
	if cfg.Parallel {
		c.par = NewParallelProcessor(cfg)
	}
	return c
}

// ParallelStats returns the scheduler counters of the parallel
// processor; the zero value when parallel execution is disabled.
func (c *Chain) ParallelStats() ParallelStats {
	if c.par == nil {
		return ParallelStats{}
	}
	return c.par.Stats()
}

// Config returns the chain configuration.
func (c *Chain) Config() Config { return c.cfg }

// Head returns the current head block.
func (c *Chain) Head() *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.blocks[len(c.blocks)-1]
}

// HeadHash returns the head block's hash, which the chain keeps beside
// the head instead of hashing its header again.
func (c *Chain) HeadHash() types.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.headHash
}

// Height returns the head block number.
func (c *Chain) Height() uint64 { return c.Head().Number() }

// BlockByNumber returns the block at the given height, or nil. On a
// snapshot-bootstrapped chain, heights below the snapshot point have no
// stored block.
func (c *Chain) BlockByNumber(n uint64) *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if n < c.base || n-c.base >= uint64(len(c.blocks)) {
		return nil
	}
	return c.blocks[n-c.base]
}

// Base returns the lowest block number the chain holds: 0 for chains
// grown from genesis, the snapshot head for bootstrapped chains.
func (c *Chain) Base() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.base
}

// Receipts returns the receipts of a canonical block by hash, one slab
// in body order: the i-th is the outcome of the block's i-th
// transaction, whose hash, index and block number the block gives.
func (c *Chain) Receipts(blockHash types.Hash) []types.Receipt {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.receipts[blockHash]
}

// Watch subscribes fn to the chain's settlement feed: it is called
// synchronously, under the chain's write lock, with each block the chain
// adopts (adopted true) and each canonical block a fork orphans, newest
// first and before the branch, which follows in ascending order. An
// orphan's receipts are nil if the chain never held them (it reopened
// above the block); it forgets them once fn has seen them. fn must be
// fast and must not call back into the chain.
func (c *Chain) Watch(fn func(block *types.Block, hash types.Hash, receipts []types.Receipt, adopted bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.watchers = append(c.watchers, fn)
}

// settle hands one block to every watcher.
func (c *Chain) settle(block *types.Block, hash types.Hash, receipts []types.Receipt, adopted bool) {
	for _, fn := range c.watchers {
		fn(block, hash, receipts, adopted)
	}
}

// State returns a private copy of the post-head world state (one
// allocation: the copy shares what the head state holds). Callers that
// only read, or hand the state to Process (which copies), use
// ReadState/ReadHeadState instead.
func (c *Chain) State() *statedb.StateDB {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.state.Copy()
}

// ReadState runs fn against the live head state under the chain lock;
// fn must not mutate the state. Cheaper than State() for point reads.
func (c *Chain) ReadState(fn func(*statedb.StateDB)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	fn(c.state)
}

// ReadHeadState runs fn against the head block, its hash (HeadHash) AND
// the live head state under one lock acquisition, so callers observe a
// consistent (header, state) pair — reading Head() and then locking
// separately can tear across a concurrent import. fn must not mutate the
// state. It may keep the pointer past the call: an adopted post state is
// never written again, a later import only replaces it.
func (c *Chain) ReadHeadState(fn func(head *types.Block, headHash types.Hash, st *statedb.StateDB)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	fn(c.blocks[len(c.blocks)-1], c.headHash, c.state)
}

// Process replays a block body against a parent state copy through the
// chain's processor, returning the full validated transition — receipts
// as one slab plus the memoized state and receipt roots. Miners
// build headers from it; InsertBlock verifies against it; the two never
// re-derive a root the processor already produced. Bodies run on the
// parallel processor when one is configured, the sequential processor
// otherwise; the two are differentially pinned to byte-identical
// results, so consumers never know which ran. The result is bound to
// header and parentState by identity (see InsertBuilt).
func (c *Chain) Process(parentState *statedb.StateDB, header *types.Header, txs []*types.Transaction) (*ExecResult, error) {
	var res *ExecResult
	var err error
	if c.par != nil {
		res, err = c.par.Process(parentState, header, txs)
	} else {
		res, err = c.proc.Process(parentState, header, txs)
	}
	if err != nil {
		return nil, err
	}
	res.header, res.parent = header, parentState
	res.number, res.time = header.Number, header.Time
	return res, nil
}

// InsertBlock validates a block and appends it to the chain. Without an
// ExecCache every peer re-executes the body and checks the roots (§II-D,
// validation by full replay). With a shared cache a verified execution of
// the block — the miner's adopted build, or else the first importer's
// replay — is memoized; later importers verify the header against the
// memoized roots and share the flushed post state instead of
// recomputing it.
func (c *Chain) InsertBlock(block *types.Block) ([]types.Receipt, error) {
	return c.InsertBuilt(block, nil)
}

// InsertBuilt is InsertBlock for the miner of the block: built is the
// execution Process returned when the block was assembled, and stands in
// for the replay only if Process ran it for this very header on the state
// that is still the head. Anything else (nil, another header, a head that
// has moved) is ignored and the block is replayed. Every check of
// InsertBlock still runs — gas used, receipt root and state root against
// the header included — and only an execution that passes them enters the
// ExecCache, under the hash of the header it was checked against: the
// other in-process peers then adopt it instead of replaying. Execution
// reads only Number and Time from the header, and both are bound to the
// build, so an edited header either lands on another key or is refused
// here with nothing memoized.
func (c *Chain) InsertBuilt(block *types.Block, built *ExecResult) ([]types.Receipt, error) {
	receipts, err := c.insertBuilt(block, built)
	if err == nil {
		c.maybeSweep()
	}
	return receipts, err
}

// insertBuilt is InsertBuilt under the chain's lock, without the sweep
// the adoption may set off.
func (c *Chain) insertBuilt(block *types.Block, built *ExecResult) ([]types.Receipt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	head := c.blocks[len(c.blocks)-1]
	if block.Header.ParentHash != c.headHash {
		return nil, fmt.Errorf("%w: %s", ErrUnknownParent, block.Header.ParentHash.Hex())
	}
	if block.Header.Number != head.Number()+1 {
		return nil, fmt.Errorf("%w: got %d want %d", ErrBadNumber, block.Header.Number, head.Number()+1)
	}
	if err := c.verifySeal(block.Header); err != nil {
		return nil, err
	}

	// Hashed once per insert, from the header as it stands, and never kept
	// on the block: a tampered header must miss the ExecCache.
	hash := block.Hash()
	receipts, post, err := c.verifyBlockLocked(head.Header.StateRoot, c.state, block, hash, built)
	if err != nil {
		return nil, err
	}
	if err := c.adopt(block, hash, receipts, post); err != nil {
		return nil, err
	}
	return receipts, nil
}

// verifyBlockLocked validates a block body against its parent state
// (cache-aware) and returns the resulting receipts and post state. hash
// is block.Hash(), derived by the caller for this call. built, when it is
// the execution of this header on this parent state, is verified in place
// of a replay and of a cache lookup. Whatever execution passes is
// memoized. It does not check parent linkage, number, or seal — callers
// do — and does not mutate the chain.
func (c *Chain) verifyBlockLocked(parentRoot types.Hash, parentState *statedb.StateDB, block *types.Block, hash types.Hash, built *ExecResult) ([]types.Receipt, *statedb.StateDB, error) {
	key := ExecKey{ParentRoot: parentRoot, BlockHash: hash}
	var res *ExecResult
	if built.builtFor(block.Header, parentState) {
		res = built
	} else if c.cfg.ExecCache != nil {
		res, _ = c.cfg.ExecCache.Get(key)
	}
	// block.TxRoot() is memoized on the shared block instance: derived
	// once (by the miner at build time or the first importer), reused by
	// every later peer. This authenticates REBUILT bodies — a block
	// reconstructed with a different Txs list is a new instance with a
	// cold cache, so swapped transactions still die here on cache hits.
	// What it does NOT re-detect is in-place mutation of the shared
	// frozen instance after its root was derived; like the pool's frozen
	// transactions and the cache's shared post states, an admitted
	// block's body is immutable by contract.
	if got := block.TxRoot(); got != block.Header.TxRoot {
		return nil, nil, ErrBadTxRoot
	}
	if res == nil {
		var err error
		if res, err = c.Process(parentState, block.Header, block.Txs); err != nil {
			return nil, nil, err
		}
	}
	// Replayed, memoized or built, the execution must land exactly on the
	// header's claims: one ExecResult carries the receipts AND the
	// memoized roots, so nothing is re-derived here.
	if res.GasUsed != block.Header.GasUsed {
		return nil, nil, fmt.Errorf("%w: replay %d, header %d", ErrBadGasUsed, res.GasUsed, block.Header.GasUsed)
	}
	if res.ReceiptRoot != block.Header.ReceiptRoot {
		return nil, nil, ErrBadReceiptRoot
	}
	if res.StateRoot != block.Header.StateRoot {
		return nil, nil, fmt.Errorf("%w: replay %s, header %s", ErrBadStateRoot, res.StateRoot.Hex(), block.Header.StateRoot.Hex())
	}
	// Every execution that got here passed the same checks against the
	// header it is keyed by, so a built one is as good as a replay: the
	// miner's adoption memoizes its block for every other importer, and
	// a hit is kept (Put keeps the first writer's entry).
	if c.cfg.ExecCache != nil {
		c.cfg.ExecCache.Put(key, res)
	}
	return res.Receipts, res.Post, nil
}

// ImportFork adopts a competing branch under the longest-chain rule.
// blocks must be a parent-linked ascending run whose first block attaches
// to a canonical block and whose tip is strictly higher than the current
// head; already-canonical prefix blocks are skipped. Every non-canonical
// block is fully validated (seal, tx root, replay against its parent's
// post state) before ANY chain state changes — a branch that fails
// validation leaves the chain untouched. The first parent's post state
// is one the chain keeps or, on a store-backed chain, one it reopens from
// its store (postAt); past the reorg horizon the fork is refused with
// ErrForkTooDeep. Returns the number of canonical blocks orphaned by the
// switch.
func (c *Chain) ImportFork(blocks []*types.Block) (int, error) {
	orphaned, err := c.importFork(blocks)
	if err == nil {
		c.maybeSweep()
	}
	return orphaned, err
}

// importFork is ImportFork under the chain's lock, without the sweep the
// reorg may set off.
func (c *Chain) importFork(blocks []*types.Block) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(blocks) == 0 {
		return 0, fmt.Errorf("%w: empty fork", ErrForkTooShort)
	}
	// Skip the prefix we already have.
	i := 0
	for ; i < len(blocks); i++ {
		num := blocks[i].Number()
		if num >= c.base && num-c.base < uint64(len(c.blocks)) && c.blocks[num-c.base].Hash() == blocks[i].Hash() {
			continue
		}
		break
	}
	fork := blocks[i:]
	if len(fork) == 0 {
		return 0, nil // entirely canonical already
	}
	first := fork[0]
	attach := first.Number()
	if attach <= c.base {
		// Below base there is no stored parent state to validate against
		// (genesis for ordinary chains, the snapshot head for
		// bootstrapped ones).
		return 0, fmt.Errorf("%w: fork attaches at or below base block %d", ErrUnknownParent, c.base)
	}
	if attach-c.base >= uint64(len(c.blocks)) {
		return 0, fmt.Errorf("%w: fork attaches above head", ErrUnknownParent)
	}
	parent := c.blocks[attach-1-c.base]
	parentHash := parent.Hash()
	if first.Header.ParentHash != parentHash {
		return 0, fmt.Errorf("%w: %s", ErrUnknownParent, first.Header.ParentHash.Hex())
	}
	tip, head := fork[len(fork)-1].Number(), c.blocks[len(c.blocks)-1].Number()
	if tip <= head {
		return 0, fmt.Errorf("%w: fork tip %d, head %d", ErrForkTooShort, tip, head)
	}

	// Validate the whole branch before touching canonical state.
	depth := head - parent.Number() // >= 1: the fork attaches at or below the head
	parentState := c.postAt(depth)
	if parentState == nil {
		return 0, fmt.Errorf("%w: parent %d is %d below head %d", ErrForkTooDeep, parent.Number(), depth, head)
	}
	hashes := make([]types.Hash, len(fork))
	receipts := make([][]types.Receipt, len(fork))
	posts := make([]*statedb.StateDB, len(fork))
	prev, prevHash, prevState := parent, parentHash, parentState
	for j, b := range fork {
		if b.Header.ParentHash != prevHash {
			return 0, fmt.Errorf("%w: fork not parent-linked at %d", ErrUnknownParent, b.Number())
		}
		if b.Header.Number != prev.Number()+1 {
			return 0, fmt.Errorf("%w: got %d want %d", ErrBadNumber, b.Header.Number, prev.Number()+1)
		}
		if err := c.verifySeal(b.Header); err != nil {
			return 0, err
		}
		hash := b.Hash()
		r, post, err := c.verifyBlockLocked(prev.Header.StateRoot, prevState, b, hash, nil)
		if err != nil {
			return 0, err
		}
		hashes[j], receipts[j], posts[j] = hash, r, post
		prev, prevHash, prevState = b, hash, post
	}

	// Commit: truncate the losing suffix — the watchers see it newest
	// first, each block under its child's ParentHash, and its receipts
	// and post states go — and splice in the winner. Orphaned transactions
	// are NOT re-injected into pools (measured as orphan loss by the
	// simulator, where a production node would re-broadcast them).
	orphaned := len(c.blocks) - int(attach-c.base)
	hash := c.headHash
	for k := len(c.blocks) - 1; k >= int(attach-c.base); k-- {
		c.settle(c.blocks[k], hash, c.receipts[hash], false)
		delete(c.receipts, hash)
		hash = c.blocks[k].Header.ParentHash
	}
	c.blocks = c.blocks[:attach-c.base]
	for j, b := range fork {
		c.blocks = append(c.blocks, b)
		c.receipts[hashes[j]] = receipts[j]
		c.settle(b, hashes[j], receipts[j], true)
	}
	c.headHash = hashes[len(hashes)-1]
	// The posts up to the parent's stay (one reopened from the store is
	// not kept), the branch's below its tip follow.
	kept := 0
	if depth <= uint64(len(c.posts)) {
		kept = len(c.posts) - int(depth) + 1
	}
	clear(c.posts[kept:])
	c.posts = c.posts[:kept]
	for _, post := range posts[:len(posts)-1] {
		c.keepPost(post)
	}
	c.state = posts[len(posts)-1]
	if c.cfg.Store != nil {
		// Rewrite the reorged numbers (the log's last-write-wins replay
		// makes the new branch canonical on recovery) with every branch
		// block's state, and move the head to the tip. The branch is
		// already fully validated and adopted in memory, so persist
		// errors only degrade restart fidelity.
		if err := c.persistLocked(fork, posts); err != nil {
			return orphaned, fmt.Errorf("chain: persist fork to block %d: %w", tip, err)
		}
	}
	return orphaned, nil
}

// postAt returns the post state of the canonical block depth below the
// head that the chain keeps or reopens from its store, and nil past the
// reorg horizon or for a state the store lacks.
func (c *Chain) postAt(depth uint64) *statedb.StateDB {
	root := c.blocks[len(c.blocks)-1-int(depth)].Header.StateRoot
	switch {
	case depth == 0:
		return c.state
	case depth <= uint64(len(c.posts)):
		return c.posts[len(c.posts)-int(depth)]
	case depth <= memoryWindow && c.cfg.Store != nil && hasStateRoot(c.cfg.Store, root):
		return statedb.OpenAt(c.cfg.Store, root)
	}
	return nil
}

// keepPost appends the post state of the block now right below the head
// to posts, dropping the oldest beyond the window.
func (c *Chain) keepPost(post *statedb.StateDB) {
	if len(c.posts) < cap(c.posts) {
		c.posts = append(c.posts, post)
		return
	}
	copy(c.posts, c.posts[1:])
	c.posts[len(c.posts)-1] = post
}

// adopt appends a validated block under hash, its header's digest. post
// must be flushed (Root called); it may be shared with other chains and
// is never mutated in place — every execution copies it first (Process)
// and reads go through ReadState/State. With a store configured, the
// block is persisted BEFORE the in-memory adoption so a persist failure
// leaves memory and disk agreeing on the old head.
func (c *Chain) adopt(block *types.Block, hash types.Hash, receipts []types.Receipt, post *statedb.StateDB) error {
	if c.cfg.Store != nil {
		if err := c.persistLocked([]*types.Block{block}, []*statedb.StateDB{post}); err != nil {
			return fmt.Errorf("chain: persist block %d: %w", block.Number(), err)
		}
	}
	c.blocks = append(c.blocks, block)
	c.headHash = hash
	c.receipts[hash] = receipts
	c.keepPost(c.state)
	c.state = post
	c.settle(block, hash, receipts, true)
	return nil
}

// verifySeal checks the PoW target when difficulty is enabled.
func (c *Chain) verifySeal(h *types.Header) error {
	if c.cfg.Difficulty == 0 {
		return nil
	}
	if !SealValid(h, c.cfg.Difficulty) {
		return ErrBadSeal
	}
	return nil
}

// SealValid reports whether the header's PoW nonce satisfies the
// difficulty target: the first 8 bytes of Keccak(sealHash ‖ nonce),
// interpreted big-endian, must be below 2^64 / difficulty.
func SealValid(h *types.Header, difficulty uint64) bool {
	if difficulty <= 1 {
		return true
	}
	digest := sealDigest(h)
	target := ^uint64(0) / difficulty
	return digest <= target
}

func sealDigest(h *types.Header) uint64 {
	seal := h.SealHash()
	var nonceBytes [8]byte
	for i := 0; i < 8; i++ {
		nonceBytes[7-i] = byte(h.PowNonce >> (8 * i))
	}
	digest := types.Keccak(seal[:], nonceBytes[:])
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(digest[i])
	}
	return v
}

// Seal searches nonces until the header satisfies the difficulty, up to
// maxIter attempts. It reports whether a valid nonce was found; on
// failure the header's nonce is left exactly as it was (an exhausted
// search must not leak maxIter-1 into a header that callers may retry
// or discard).
func Seal(h *types.Header, difficulty, maxIter uint64) bool {
	if difficulty <= 1 {
		return true
	}
	orig := h.PowNonce
	for i := uint64(0); i < maxIter; i++ {
		h.PowNonce = i
		if SealValid(h, difficulty) {
			return true
		}
	}
	h.PowNonce = orig
	return false
}
