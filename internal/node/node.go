// Package node wires the full client stack — chain, pool, EVM, HMS
// tracker, RAA service, miner, network — into the two client types the
// paper evaluates: the standard Geth-like client (READ-COMMITTED views
// only) and the Sereth client (HMS + RAA, READ-UNCOMMITTED views). Both
// speak the same protocol and validate the same blocks, which is the
// interoperability property demonstrated in §V.
package node

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/evm"
	"sereth/internal/hms"
	"sereth/internal/miner"
	"sereth/internal/p2p"
	"sereth/internal/raa"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/txpool"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// Mode selects the client type.
type Mode int

// Client modes.
const (
	// ModeGeth is the unmodified standard client: no HMS, no RAA.
	ModeGeth Mode = iota + 1
	// ModeSereth enables the HMS tracker and RAA provider.
	ModeSereth
)

func (m Mode) String() string {
	if m == ModeSereth {
		return "sereth"
	}
	return "geth"
}

// MinerKind selects the block-ordering strategy for mining nodes.
type MinerKind int

// Miner kinds.
const (
	// MinerNone disables mining on this node.
	MinerNone MinerKind = iota
	// MinerBaseline orders by price with arbitrary tie-breaking.
	MinerBaseline
	// MinerSemantic orders by the HMS series (requires ModeSereth).
	MinerSemantic
)

// Config assembles a node.
type Config struct {
	ID       p2p.PeerID
	Mode     Mode
	Miner    MinerKind
	Contract types.Address
	Chain    chain.Config
	Genesis  *statedb.StateDB
	Network  *p2p.Network
	// Seed drives the miner's arbitrary ordering.
	Seed int64
	// ExtendHeads enables the HMS orphan-recovery extension (ablation).
	ExtendHeads bool
	// ReorderWindow sets the baseline miner's same-price reordering noise
	// in transaction positions; negative selects the default.
	ReorderWindow int
	// PoolCapacity bounds the pending pool (0 = the pool's default).
	PoolCapacity int
	// EvictOnFull selects the pool's evict-lowest overflow policy
	// instead of rejecting newcomers (overload scenarios).
	EvictOnFull bool
	// CensorTargets, on a mining node, wraps the ordering strategy in a
	// censoring adversary that excludes every pending transaction from
	// the listed senders (robustness experiments).
	CensorTargets []types.Address
	// Store, when set, persists every adopted block and its state so a
	// restart recovers the head without replay. A store that already
	// holds a head takes precedence over Genesis and Bootstrap.
	Store store.Store
	// Bootstrap, when set, is a snapshot (the store a serving peer's
	// Chain().Export filled) to fast-bootstrap from; rejected snapshots
	// fall back to Genesis + block sync. Without a Store of its own the
	// node keeps reading through it. See persist.go.
	Bootstrap store.Store
}

// Node is one peer: a full validating client, optionally mining.
type Node struct {
	id      p2p.PeerID
	mode    Mode
	chain   *chain.Chain
	pool    *txpool.Pool
	tracker *hms.Tracker
	raaSvc  *raa.Service
	miner   *miner.Miner
	censor  *miner.Censor // non-nil when CensorTargets is set
	net     *p2p.Network
	store   store.Store // nil without persistence
	boot    BootSource

	closeOnce sync.Once
	closeErr  error

	mu    sync.Mutex
	stats Stats
	// orphans buffers blocks that arrived ahead of a missing parent
	// (gossip loss), with the peer that delivered them; they are retried
	// after every successful import. Nothing in a buffered block has been
	// verified and its key is the sender-chosen number, so only numbers
	// within bufferWindow of the head are kept, plus farOrphan: the buffer
	// holds at most that many entries whatever a peer sends.
	orphans map[uint64]orphanEntry
	// farOrphan is the number of the one block kept from beyond the
	// window, the highest any peer has sent. With it buffered, drainOrphans
	// keeps re-requesting after each capped batch, so a peer many batches
	// behind catches up on a quiet chain from one tip block. A forged one
	// is never reached: it costs its sender's victim one spare request
	// per batch of imports, and no memory.
	farOrphan uint64
	// syncFrontier/syncAsked suppress duplicate catch-up requests: at
	// most one RequestBlocks per distinct sender per gap frontier
	// (height+1 at request time). Without this, on high-latency
	// multihop topologies every in-flight response block ahead of the
	// head spawns its own full-range request and the storm amplifies
	// quadratically; with it, a request that hit a peer with nothing
	// still gets retried via the next sender that delivers an orphan.
	syncFrontier uint64
	syncAsked    map[p2p.PeerID]struct{}
	// syncCover is the highest block number the responses to
	// already-issued requests could still deliver (frontier + response
	// batch cap). The import-driven retry in drainOrphans stays quiet
	// while the missing block is under cover — otherwise every imported
	// batch block would re-request a range that is already in flight.
	syncCover uint64
	// fork buffers competing-branch candidates: blocks at or below
	// head+1 whose parent is not our head (ErrUnknownParent on import).
	// When a parent-linked run in the buffer attaches to a canonical
	// block and outgrows the head, it is handed to chain.ImportFork —
	// the longest-chain resolution that lets partitioned groups converge
	// after a heal. forkFrontier/forkAsked dedup the back-walk requests
	// for blocks below the earliest buffered candidate, mirroring
	// syncFrontier/syncAsked. Candidates are as unverified as orphans:
	// only numbers within bufferWindow below the head are kept (deeper
	// reorgs are refused), and every fork import drops the ones at or
	// below its attach point.
	fork         map[uint64]orphanEntry
	forkFrontier uint64
	forkAsked    map[p2p.PeerID]struct{}
}

// orphanEntry is a buffered ahead-of-head block plus the peer it came
// from (the catch-up retry target).
type orphanEntry struct {
	block *types.Block
	from  p2p.PeerID
}

// maxSyncBatch caps the blocks served per catch-up request; requesters
// use the same constant to reason about what in-flight responses can
// still deliver.
const maxSyncBatch = 256

// bufferWindow is how far from the head, above (orphans) or below (fork
// candidates), an unverified block may be numbered and still be
// buffered. Two batches above is as far as the responses to issued
// catch-up requests deliver; of the blocks further out only the highest
// is kept, as the catch-up target. Below, it is the deepest reorg a node
// will follow.
const bufferWindow = 2 * maxSyncBatch

// Stats counts node-level events.
type Stats struct {
	TxSeen         uint64
	TxRejected     uint64
	BlocksImported uint64
	BlocksRejected uint64
	// BlocksOrphaned counts canonical blocks this node displaced via
	// longest-chain reorgs (partition heals).
	BlocksOrphaned uint64
	// ForksTooDeep counts fork imports the chain refused because the
	// branch forks below its reorg horizon (chain.ErrForkTooDeep). What
	// lies below the horizon is final for this node: such a branch is
	// not counted as rejected, and it is not fetched again.
	ForksTooDeep uint64
}

var (
	_ p2p.Handler        = (*Node)(nil)
	_ p2p.TxBatchHandler = (*Node)(nil)
)

// New builds a node and joins it to the network.
func New(cfg Config) (*Node, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("node %d: network is required", cfg.ID)
	}
	c, boot, err := buildChain(cfg)
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", cfg.ID, err)
	}
	n := &Node{
		id:      cfg.ID,
		mode:    cfg.Mode,
		chain:   c,
		net:     cfg.Network,
		store:   cfg.Store,
		boot:    boot,
		orphans: make(map[uint64]orphanEntry),
		fork:    make(map[uint64]orphanEntry),
	}
	poolOpts := []txpool.Option{txpool.WithValidator(func(tx *types.Transaction) error {
		if cfg.Chain.Registry != nil {
			return cfg.Chain.Registry.VerifyTx(tx)
		}
		return nil
	})}
	if cfg.PoolCapacity > 0 {
		poolOpts = append(poolOpts, txpool.WithCapacity(cfg.PoolCapacity))
	}
	if cfg.EvictOnFull {
		poolOpts = append(poolOpts, txpool.WithEvictLowest())
	}
	n.pool = txpool.New(poolOpts...)

	if cfg.Mode == ModeSereth {
		n.tracker = hms.NewTracker(hms.Config{
			Contract:    cfg.Contract,
			SetSelector: asm.SelSet,
			BuySelector: asm.SelBuy,
			ExtendHeads: cfg.ExtendHeads,
		})
		// Bind the tracker to the pool's change feed: views are maintained
		// under O(Δ) pool deltas instead of recomputed per call.
		n.tracker.Attach(n.pool)
		n.refreshCommitted()
		n.raaSvc = raa.NewService()
		raa.RegisterHMS(n.raaSvc, n.tracker, n.pool, asm.SelGet, asm.SelMark)
	}

	window := cfg.ReorderWindow
	if window < 0 {
		window = miner.DefaultReorderWindow
	}
	var strategy miner.Strategy
	switch cfg.Miner {
	case MinerNone:
	case MinerBaseline:
		strategy = miner.NewBaselineWindow(cfg.Seed, window)
	case MinerSemantic:
		if n.tracker == nil {
			return nil, fmt.Errorf("node %d: semantic mining requires sereth mode", cfg.ID)
		}
		strategy = miner.NewSemanticWindow(n.tracker, cfg.Seed, window)
	default:
		return nil, fmt.Errorf("node %d: unknown miner kind %d", cfg.ID, cfg.Miner)
	}
	if strategy != nil {
		if len(cfg.CensorTargets) > 0 {
			n.censor = miner.NewCensor(strategy, cfg.CensorTargets)
			strategy = n.censor
		}
		n.miner = miner.NewMiner(c, n.pool, strategy, minerAddress(cfg.ID))
	}

	cfg.Network.Join(cfg.ID, n)
	return n, nil
}

func minerAddress(id p2p.PeerID) types.Address {
	var a types.Address
	a[0] = 0xee
	a[19] = byte(id)
	return a
}

// ID returns the node's peer id.
func (n *Node) ID() p2p.PeerID { return n.id }

// Mode returns the client mode.
func (n *Node) Mode() Mode { return n.mode }

// Chain exposes the node's chain (read-mostly).
func (n *Node) Chain() *chain.Chain { return n.chain }

// Pool exposes the node's transaction pool.
func (n *Node) Pool() *txpool.Pool { return n.pool }

// Tracker returns the HMS tracker (nil in geth mode).
func (n *Node) Tracker() *hms.Tracker { return n.tracker }

// Stats returns a copy of the node statistics.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// SubmitTx admits a locally-created transaction and gossips it. The
// pool's memoized (frozen) instance is what goes on the wire, so the
// broadcast shares one immutable payload with every recipient instead
// of copying per peer.
func (n *Node) SubmitTx(tx *types.Transaction) error {
	admitted, err := n.pool.Admit(tx)
	if err != nil {
		return fmt.Errorf("node %d submit: %w", n.id, err)
	}
	n.net.BroadcastTx(n.id, admitted)
	return nil
}

// SubmitTxs admits a batch of locally-created transactions under one
// pool lock acquisition and gossips the admitted ones as ONE batched
// envelope. Per-transaction failures don't abort the batch; the first
// error (if any) is returned after the admitted remainder is broadcast.
func (n *Node) SubmitTxs(txs []*types.Transaction) error {
	admitted, errs := n.pool.AdmitBatch(txs)
	var firstErr error
	shared := admitted[:0]
	for i, tx := range admitted {
		if tx != nil {
			shared = append(shared, tx)
		} else if firstErr == nil {
			firstErr = fmt.Errorf("node %d submit batch [%d]: %w", n.id, i, errs[i])
		}
	}
	if len(shared) > 0 {
		n.net.BroadcastTxs(n.id, shared)
	}
	return firstErr
}

// HandleTx implements p2p.Handler.
func (n *Node) HandleTx(_ p2p.PeerID, tx *types.Transaction) {
	n.mu.Lock()
	n.stats.TxSeen++
	n.mu.Unlock()
	if err := n.pool.Add(tx); err != nil {
		n.mu.Lock()
		n.stats.TxRejected++
		n.mu.Unlock()
	}
}

// HandleTxs implements p2p.TxBatchHandler: a batched gossip envelope is
// admitted through txpool.AdmitBatch — one lock acquisition for the
// whole batch instead of per-transaction locking — with the same
// per-transaction admission semantics HandleTx would apply.
func (n *Node) HandleTxs(_ p2p.PeerID, txs []*types.Transaction) {
	_, errs := n.pool.AdmitBatch(txs)
	rejected := uint64(0)
	for _, err := range errs {
		if err != nil {
			rejected++
		}
	}
	n.mu.Lock()
	n.stats.TxSeen += uint64(len(txs))
	n.stats.TxRejected += rejected
	n.mu.Unlock()
}

// HandleBlock implements p2p.Handler: validate by replay and adopt. A
// block that arrives ahead of a missing ancestor (lost gossip) is
// buffered and the gap is requested from the sender — the catch-up sync
// that keeps lossy networks convergent.
func (n *Node) HandleBlock(from p2p.PeerID, block *types.Block) {
	height := n.chain.Height()
	if block.Number() > height+1 {
		n.mu.Lock()
		num, far := block.Number(), height+bufferWindow
		if num <= far || num > n.farOrphan {
			if num > far {
				if n.farOrphan > far {
					delete(n.orphans, n.farOrphan)
				}
				n.farOrphan = num
			}
			n.orphans[num] = orphanEntry{block: block, from: from}
		}
		request := n.markSyncRequestLocked(from, height+1)
		n.mu.Unlock()
		if request {
			n.net.RequestBlocks(n.id, from, height+1)
		}
		return
	}
	if err := n.importBlock(block, nil); err == nil {
		n.drainOrphans()
	} else if errors.Is(err, chain.ErrUnknownParent) {
		// A block at or below head+1 whose parent isn't our head: a
		// competing branch (fork) — collect candidates and reorg when the
		// branch attaches and outgrows us.
		n.noteForkBlock(from, block)
	}
}

// HandleBlockRequest implements p2p.Handler: serve our chain from the
// requested height so the requester can catch up. Responses are capped
// per request; a requester still behind after a capped batch re-requests
// when the next block beyond its sync frontier arrives.
func (n *Node) HandleBlockRequest(from p2p.PeerID, fromNumber uint64) {
	end := n.chain.Height()
	if fromNumber+maxSyncBatch-1 < end {
		end = fromNumber + maxSyncBatch - 1
	}
	for num := fromNumber; num <= end; num++ {
		block := n.chain.BlockByNumber(num)
		if block == nil {
			return
		}
		n.net.SendBlock(n.id, from, block)
	}
}

// markSyncRequestLocked records a catch-up request intent for the given
// gap frontier and reports whether the request should actually go out:
// a new frontier resets the asked-set, and each sender is asked at most
// once per frontier.
func (n *Node) markSyncRequestLocked(from p2p.PeerID, frontier uint64) bool {
	if frontier != n.syncFrontier {
		n.syncFrontier = frontier
		n.syncAsked = make(map[p2p.PeerID]struct{}, 2)
	}
	if _, asked := n.syncAsked[from]; asked {
		return false
	}
	n.syncAsked[from] = struct{}{}
	if cover := frontier + maxSyncBatch - 1; cover > n.syncCover {
		n.syncCover = cover
	}
	return true
}

// drainOrphans retries buffered successors after a successful import.
// If a gap persists once the buffer is exhausted (the earlier catch-up
// request hit a peer that had nothing, or the capped response batch
// fell short), it re-requests the missing range from the peer that
// delivered the lowest still-buffered orphan.
func (n *Node) drainOrphans() {
	for {
		next := n.chain.Height() + 1
		n.mu.Lock()
		entry, ok := n.orphans[next]
		if ok {
			delete(n.orphans, next)
		}
		// Drop stale buffered blocks at or below the head.
		for num := range n.orphans {
			if num <= n.chain.Height() {
				delete(n.orphans, num)
			}
		}
		var retryFrom p2p.PeerID
		retry := false
		if !ok && len(n.orphans) > 0 {
			// Retry only when no in-flight response batch can still
			// deliver the missing block.
			if next > n.syncCover {
				lowest := ^uint64(0)
				for num, e := range n.orphans {
					if num < lowest {
						lowest, retryFrom = num, e.from
					}
				}
				retry = n.markSyncRequestLocked(retryFrom, next)
			}
		} else if !ok {
			n.syncCover = 0 // gap fully closed; stale cover must not
			// suppress the first retry of a future gap
		}
		n.mu.Unlock()
		if !ok {
			if retry {
				n.net.RequestBlocks(n.id, retryFrom, next)
			}
			return
		}
		if n.importBlock(entry.block, nil) != nil {
			return
		}
	}
}

// importBlock inserts a block at the head and settles the pool. built is
// the execution this node's miner built the block from, nil for a block
// that arrived from a peer. A block whose parent is not the head is not
// counted as rejected — the caller buffers it as a fork candidate —
// unless no fork could attach it: a block at or below the chain's base,
// or right above it on another parent, since what is below the base is
// final (ImportFork refuses it).
func (n *Node) importBlock(block *types.Block, built *chain.ExecResult) error {
	if _, err := n.chain.InsertBuilt(block, built); err != nil {
		base := n.chain.BlockByNumber(n.chain.Base())
		if !errors.Is(err, chain.ErrUnknownParent) || block.Number() <= base.Number() ||
			block.Number() == base.Number()+1 && block.Header.ParentHash != base.Hash() {
			n.mu.Lock()
			n.stats.BlocksRejected++
			n.mu.Unlock()
		}
		return err
	}
	n.mu.Lock()
	n.stats.BlocksImported++
	// The head moved: fork candidates now deeper than the reorg window
	// can no longer be adopted.
	for num := range n.fork {
		if num+bufferWindow < block.Number() {
			delete(n.fork, num)
		}
	}
	n.mu.Unlock()

	n.settlePool(block)
	return nil
}

// settlePool drops the adopted blocks' transactions and whatever they
// made stale from the pool. This is the moment the paper's 10-20%
// orphan loss occurs: pending successors of just-committed marks lose
// their in-pool parents (§V-C).
func (n *Node) settlePool(blocks ...*types.Block) {
	n.chain.ReadState(func(st *statedb.StateDB) {
		for _, b := range blocks {
			n.pool.Settle(b.Txs, st.GetNonce)
		}
	})
	n.refreshCommitted()
}

// noteForkBlock buffers a competing-branch block and attempts longest-
// chain resolution: assemble the parent-linked run through it, and —
// when the run attaches to a canonical block and its tip is strictly
// higher than our head — hand it to chain.ImportFork. A run that
// doesn't reach down to a canonical attachment triggers a deduplicated
// back-walk RequestBlocks for the blocks below it.
func (n *Node) noteForkBlock(from p2p.PeerID, block *types.Block) {
	num := block.Number()
	if num == 0 {
		return
	}
	n.mu.Lock()
	height := n.chain.Height()
	if num+bufferWindow < height {
		n.mu.Unlock()
		return // deeper than any reorg this node follows
	}
	n.fork[num] = orphanEntry{block: block, from: from}
	// Longest parent-linked run through num currently in the buffer.
	lo := num
	for lo > 1 {
		prev, ok := n.fork[lo-1]
		if !ok || n.fork[lo].block.Header.ParentHash != prev.block.Hash() {
			break
		}
		lo--
	}
	hi := num
	for {
		next, ok := n.fork[hi+1]
		if !ok || next.block.Header.ParentHash != n.fork[hi].block.Hash() {
			break
		}
		hi++
	}
	attach := n.chain.BlockByNumber(lo - 1)
	linked := attach != nil && n.fork[lo].block.Header.ParentHash == attach.Hash()
	var blocks []*types.Block
	request := false
	var reqAt uint64
	switch {
	case linked && hi > height:
		blocks = make([]*types.Block, 0, hi-lo+1)
		for i := lo; i <= hi; i++ {
			blocks = append(blocks, n.fork[i].block)
		}
	case !linked && lo >= 2:
		// The branch point is below our buffered run: walk further back.
		reqAt = lo - 1
		request = n.markForkRequestLocked(from, reqAt)
	}
	n.mu.Unlock()
	if request {
		n.net.RequestBlocks(n.id, from, reqAt)
	}
	if blocks == nil {
		return // branch not attachable or not longer yet; keep buffering
	}
	orphaned, err := n.chain.ImportFork(blocks)
	n.mu.Lock()
	if errors.Is(err, chain.ErrForkTooDeep) {
		// The candidates stay buffered: still linked, they send no
		// back-walk after the branch, and the head's next moves prune
		// them as it prunes any candidate it leaves behind.
		n.stats.ForksTooDeep++
		n.mu.Unlock()
		return
	}
	for i := lo; i <= hi; i++ {
		delete(n.fork, i)
	}
	if err != nil {
		// Invalid branch (forged or inconsistent blocks): discarding the
		// candidates prevents re-attempt livelock; honest branches get
		// re-gossiped with future blocks.
		n.stats.BlocksRejected++
		n.mu.Unlock()
		return
	}
	n.stats.BlocksImported += uint64(len(blocks))
	n.stats.BlocksOrphaned += uint64(orphaned)
	// Candidates at or below the attach point would have to displace the
	// branch just adopted; honest peers re-gossip such a branch with its
	// next block, and a forger's fill of low numbers stops here.
	for num := range n.fork {
		if num < lo {
			delete(n.fork, num)
		}
	}
	n.mu.Unlock()

	// Transactions exclusive to orphaned blocks are NOT re-injected; the
	// simulator reports them as orphan loss.
	n.settlePool(blocks...)
	n.drainOrphans()
}

// markForkRequestLocked dedups back-walk requests: one per sender per
// frontier, mirroring markSyncRequestLocked.
func (n *Node) markForkRequestLocked(from p2p.PeerID, frontier uint64) bool {
	if frontier != n.forkFrontier {
		n.forkFrontier = frontier
		n.forkAsked = make(map[p2p.PeerID]struct{}, 2)
	}
	if _, asked := n.forkAsked[from]; asked {
		return false
	}
	n.forkAsked[from] = struct{}{}
	return true
}

// ResetSyncState clears the catch-up request dedup bookkeeping. Called
// when the peer rejoins the network after churn: suppression state from
// before the outage must not silence the fresh round of catch-up
// requests.
func (n *Node) ResetSyncState() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.syncFrontier, n.syncCover = 0, 0
	n.syncAsked = nil
	n.forkFrontier = 0
	n.forkAsked = nil
}

// CensorExcluded returns the number of pending transactions this node's
// censoring miner excluded from block candidates (0 when not censoring).
func (n *Node) CensorExcluded() uint64 {
	if n.censor == nil {
		return 0
	}
	return n.censor.Excluded()
}

// refreshCommitted reloads the tracker's committed AMV from the contract
// storage after a block commits.
func (n *Node) refreshCommitted() {
	if n.tracker == nil {
		return
	}
	contract := n.tracker.Config().Contract
	var amv types.AMV
	n.chain.ReadState(func(st *statedb.StateDB) {
		amv = types.AMV{
			Address: st.GetState(contract, types.WordFromUint64(asm.SlotAddress)).Address(),
			Mark:    st.GetState(contract, types.WordFromUint64(asm.SlotMark)),
			Value:   st.GetState(contract, types.WordFromUint64(asm.SlotValue)),
		}
	})
	n.tracker.SetCommitted(amv)
}

// MineAndBroadcast builds the next block, imports it locally — adopting
// the execution it was built from, checked against the sealed header —
// and gossips it. Returns the block, or nil when this node does not mine.
func (n *Node) MineAndBroadcast(timestamp uint64) (*types.Block, error) {
	if n.miner == nil {
		return nil, nil
	}
	block, built, err := n.miner.Build(timestamp)
	if err != nil {
		return nil, err
	}
	if err := n.importBlock(block, built); err != nil {
		return nil, fmt.Errorf("node %d: own block failed validation: %w", n.id, err)
	}
	n.net.BroadcastBlock(n.id, block)
	return block, nil
}

// CallReadOnly executes a view/pure call against the head state. On a
// Sereth node the RAA hook augments registered calls; on a Geth node
// arguments pass through unchanged. The call runs against the live head
// state under the chain's read lock instead of a private copy: a
// read-only call cannot mutate (SSTORE faults with ErrWriteProtection
// before touching state, and the instruction set has no other
// state-writing opcode), so the per-call full-state Copy the old path
// paid — the dominant cost of ViewAMV's per-buy EVM cross-check — was
// pure waste. The header and state come from one ReadHeadState
// acquisition, so NUMBER/TIMESTAMP always describe the block whose
// state the call reads. The lock hold is bounded by the read-only gas
// allowance — the same order as the write-lock hold of an InsertBlock
// replay, so a slow view call delays imports no worse than a block
// import delays another. The return data is the caller's: it is copied
// out of the machine before the machine goes back to its pool.
func (n *Node) CallReadOnly(from, to types.Address, data []byte) evm.Result {
	var res evm.Result
	n.readOnly(func(machine *evm.EVM) {
		res = machine.Call(readOnlyCall(from, to, data))
		res.ReturnData = bytes.Clone(res.ReturnData)
	})
	return res
}

// readOnly runs fn with a machine bound to the head block and its state,
// under one ReadHeadState acquisition; the machine goes back to the evm
// package's pool when fn returns.
func (n *Node) readOnly(fn func(machine *evm.EVM)) {
	n.chain.ReadHeadState(func(head *types.Block, st *statedb.StateDB) {
		machine := evm.New(st, evm.BlockContext{Number: head.Header.Number, Time: head.Header.Time})
		defer machine.Release()
		if n.raaSvc != nil {
			machine.SetRAAProvider(n.raaSvc)
		}
		fn(machine)
	})
}

func readOnlyCall(from, to types.Address, data []byte) evm.CallContext {
	return evm.CallContext{Caller: from, Contract: to, Input: data, Gas: 5_000_000, ReadOnly: true}
}

// StorageAt reads a committed storage word (the READ-COMMITTED view any
// standard client has).
func (n *Node) StorageAt(contract types.Address, slot uint64) types.Word {
	var w types.Word
	n.chain.ReadState(func(st *statedb.StateDB) {
		w = st.GetState(contract, types.WordFromUint64(slot))
	})
	return w
}

// NonceAt returns the committed account nonce.
func (n *Node) NonceAt(addr types.Address) uint64 {
	var nonce uint64
	n.chain.ReadState(func(st *statedb.StateDB) {
		nonce = st.GetNonce(addr)
	})
	return nonce
}

// ViewAMV returns the client's best view of the managed variable plus the
// flag to use in the next FPV. Sereth nodes exercise the full RAA path
// through the EVM (mark() and get() calls, paper §III-B); Geth nodes read
// committed storage.
func (n *Node) ViewAMV(caller, contract types.Address) (flag, mark, value types.Word) {
	if n.mode == ModeSereth && n.tracker != nil {
		// Incremental when attached (cached unless the pool changed),
		// snapshot recompute otherwise.
		view := n.tracker.ViewOrSnapshot(n.pool.Pending)
		// Cross-check through the EVM+RAA path: mark() returns raa[1],
		// get() returns raa[2]. This keeps the architectural path of the
		// paper hot; results are identical to the tracker view. The two
		// calls read one head state on one machine, and their calldata is
		// built in an input the machine lends, so a read allocates
		// nothing; the second reuses the first's under its own selector
		// (the interpreter never writes its input, and RAA augments a
		// copy in the machine's own buffer).
		mark, value = view.AMV.Mark, view.AMV.Value
		n.readOnly(func(machine *evm.EVM) {
			data := types.PutCall(machine.Input(types.CallLength(3)), asm.SelMark, view.Flag, mark, value)
			if res := machine.Call(readOnlyCall(caller, contract, data)); res.Succeeded() {
				mark = res.ReturnWord()
			}
			copy(data, asm.SelGet[:])
			if res := machine.Call(readOnlyCall(caller, contract, data)); res.Succeeded() {
				value = res.ReturnWord()
			}
		})
		return view.Flag, mark, value
	}
	// Standard client: committed state only.
	return types.FlagHead,
		n.StorageAt(contract, asm.SlotMark),
		n.StorageAt(contract, asm.SlotValue)
}

// Wallet-facing helper: build and submit a signed set/buy transaction.
// The transaction is built signed and memoized in one object
// (wallet.Key.SignCall), which the pool adopts without a copy; it comes
// back frozen and must not be edited.

// SubmitSet submits a signed set(fpv) transaction from key.
func (n *Node) SubmitSet(key *wallet.Key, nonce uint64, contract types.Address, flag, prev, value types.Word) (*types.Transaction, error) {
	return n.SubmitSetPriced(key, nonce, contract, 10, flag, prev, value)
}

// SubmitSetPriced is SubmitSet with an explicit gas price.
func (n *Node) SubmitSetPriced(key *wallet.Key, nonce uint64, contract types.Address, gasPrice uint64, flag, prev, value types.Word) (*types.Transaction, error) {
	tx := key.SignCall(types.Transaction{
		Nonce:    nonce,
		To:       contract,
		GasPrice: gasPrice,
		GasLimit: 300_000,
	}, asm.SelSet, flag, prev, value)
	return tx, n.SubmitTx(tx)
}

// SubmitBuy submits a signed buy(offer) transaction from key.
func (n *Node) SubmitBuy(key *wallet.Key, nonce uint64, contract types.Address, flag, mark, value types.Word) (*types.Transaction, error) {
	return n.SubmitBuyPriced(key, nonce, contract, 10, flag, mark, value)
}

// SubmitBuyPriced is SubmitBuy with an explicit gas price (overload
// scenarios bid against the eviction floor).
func (n *Node) SubmitBuyPriced(key *wallet.Key, nonce uint64, contract types.Address, gasPrice uint64, flag, mark, value types.Word) (*types.Transaction, error) {
	tx := key.SignCall(types.Transaction{
		Nonce:    nonce,
		To:       contract,
		GasPrice: gasPrice,
		GasLimit: 300_000,
	}, asm.SelBuy, flag, mark, value)
	return tx, n.SubmitTx(tx)
}
