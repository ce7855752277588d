// Shared validated-execution cache: in a multi-peer process every peer
// replays every block (paper §II-D), so N in-process peers pay N
// identical EVM replays and N identical state commitments per block. The
// ExecCache memoizes each validated state transition once, keyed by
// (parent state root, block hash); peers that import the same block
// afterwards verify the header against the memoized roots instead of
// re-executing the body. It holds executions that passed the header
// checks and nothing else: the miner's adopted build (InsertBuilt), or a
// replay when no chain sharing the cache built the block. Building a
// block (Chain.Process) writes nothing, and neither does a refused import.
package chain

import (
	"sync"

	"sereth/internal/statedb"
	"sereth/internal/types"
)

// ExecKey identifies one block execution. The parent state root pins the
// pre-state; the block hash pins the header and — through the TxRoot an
// importer has already verified — the body.
type ExecKey struct {
	ParentRoot types.Hash
	BlockHash  types.Hash
}

// ExecResult is one memoized state transition. Post is the flushed
// post-execution state, structure-shared by every adopter: it must be
// treated as read-only (Chain copies it before mutating).
type ExecResult struct {
	Receipts    []types.Receipt // Receipts[i] is the i-th transaction's
	Post        *statedb.StateDB
	GasUsed     uint64
	StateRoot   types.Hash
	ReceiptRoot types.Hash

	// Chain.Process binds the result to what it ran on, by identity: the
	// header (and the two fields execution reads from it, as they were)
	// and the parent state. See InsertBuilt.
	header       *types.Header
	parent       *statedb.StateDB
	number, time uint64
}

// builtFor reports whether r is the execution Chain.Process ran for this
// header on this parent state.
func (r *ExecResult) builtFor(header *types.Header, parent *statedb.StateDB) bool {
	return r != nil && r.header == header && r.parent == parent &&
		r.number == header.Number && r.time == header.Time
}

// DefaultExecCacheSize bounds the cache to roughly the import lag between
// the fastest and slowest in-process peer, in blocks.
const DefaultExecCacheSize = 128

// ExecCache is a bounded FIFO memo of validated block executions. Safe
// for concurrent use; one instance is shared by every in-process chain.
type ExecCache struct {
	mu      sync.Mutex
	cap     int
	entries map[ExecKey]*ExecResult
	order   []ExecKey
	hits    uint64
	misses  uint64
}

// NewExecCache returns a cache bounded to capacity entries
// (DefaultExecCacheSize when capacity <= 0).
func NewExecCache(capacity int) *ExecCache {
	if capacity <= 0 {
		capacity = DefaultExecCacheSize
	}
	return &ExecCache{
		cap:     capacity,
		entries: make(map[ExecKey]*ExecResult, capacity),
	}
}

// Get returns the memoized execution for key, if present.
func (c *ExecCache) Get(key ExecKey) (*ExecResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	entry, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return entry, ok
}

// Put memoizes an execution. An existing entry is kept (executions are
// deterministic, so the first writer's result is as good as any).
func (c *ExecCache) Put(key ExecKey, res *ExecResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	if len(c.order) >= c.cap {
		evict := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, evict)
	}
	c.entries[key] = res
	c.order = append(c.order, key)
}

// Len returns the number of memoized executions.
func (c *ExecCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the hit/miss counters.
func (c *ExecCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
