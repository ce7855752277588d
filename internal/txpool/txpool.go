// Package txpool implements the pending transaction pool (the paper's
// TxPool): the shared, unordered set of transactions waiting to be mined.
// The pool preserves real-time arrival order (the concurrent history of
// §II-B), enforces per-sender nonce uniqueness with price-bump
// replacement, and notifies watchers as transactions arrive — the
// communication channel Hash-Mark-Set is built on (§III-C).
package txpool

import (
	"errors"
	"fmt"
	"sync"

	"sereth/internal/types"
)

// Pool errors.
var (
	ErrAlreadyKnown = errors.New("txpool: transaction already known")
	ErrUnderpriced  = errors.New("txpool: replacement transaction underpriced")
	ErrPoolFull     = errors.New("txpool: pool is full")
	ErrRejected     = errors.New("txpool: transaction rejected by validator")
)

// Validator pre-screens incoming transactions (signature checks etc.).
type Validator func(*types.Transaction) error

// Option configures a Pool.
type Option func(*Pool)

// WithValidator installs a transaction validator.
func WithValidator(v Validator) Option {
	return func(p *Pool) { p.validate = v }
}

// WithCapacity bounds the number of pending transactions.
func WithCapacity(n int) Option {
	return func(p *Pool) { p.capacity = n }
}

// WithEvictLowest switches the overflow policy from rejection to
// eviction: a transaction arriving at a full pool displaces the
// oldest lowest-priced resident, provided the newcomer pays a strictly
// higher gas price (otherwise it is still rejected). This is the
// sustained-overload behavior real mempools exhibit; the paper's
// orphaning analysis (§V-C) extends to evicted HMS parents.
func WithEvictLowest() Option {
	return func(p *Pool) { p.evictLowest = true }
}

// ChangeKind discriminates pool change events.
type ChangeKind uint8

// Change kinds.
const (
	// TxAdded reports a newly admitted transaction.
	TxAdded ChangeKind = iota + 1
	// TxRemoved reports a transaction leaving the pool (inclusion,
	// replacement, staleness or Clear).
	TxRemoved
)

// Change is one pool mutation, delivered to watchers in the exact order
// it was applied.
type Change struct {
	Kind ChangeKind
	// Tx is the pool's internal memoized instance — a TxRemoved carries
	// the pointer its TxAdded (or the Watch seed) carried, so watchers may
	// key on it; they must treat it as read-only.
	Tx *types.Transaction
	// Gen is the pool generation after this change was applied.
	Gen uint64
}

// Pool is a concurrency-safe pending transaction pool.
type Pool struct {
	mu sync.RWMutex
	// arrival holds the frozen instances in real-time order of admission;
	// a removal leaves a nil slot (compacted lazily), so a re-admitted
	// transaction appears once, at its new position, and reading the
	// pending set in order is a pointer scan.
	arrival []*types.Transaction
	settled int                // arrival[settled:] was admitted since the last Settle
	slot    map[types.Hash]int // every live hash's slot in arrival
	// byNonce holds the resident of every (sender, nonce) slot: one flat
	// map, so an admission allocates no per-sender map.
	byNonce map[senderNonce]*types.Transaction
	// gasLimits counts the pending transactions of each GasLimit, so a
	// miner finds the smallest without a pass over the pool.
	gasLimits map[uint64]int
	validate  Validator
	capacity  int
	// evictLowest selects the overflow policy: evict the oldest
	// lowest-priced resident instead of rejecting the newcomer.
	evictLowest bool
	evicted     uint64

	// gen counts pool mutations; consumers compare generations to detect
	// staleness without copying the pending set.
	gen      uint64
	watchers []func(Change)

	// snap caches the shared arrival-order snapshot; non-nil means it is
	// the pending set of the current generation. An admission appends to
	// it — readers hold slices limited to the length they were handed and
	// the pool is the only appender — and a removal drops it, so it never
	// pins an evicted transaction.
	snap []*types.Transaction
}

// senderNonce keys the nonce index: a sender holds at most one pending
// transaction per nonce.
type senderNonce struct {
	from  types.Address
	nonce uint64
}

func slotOf(tx *types.Transaction) senderNonce { return senderNonce{tx.From, tx.Nonce} }

// indexDepth is the depth a new pool's indices (slot, byNonce, arrival)
// are sized for. Over the nine Figure-2 cells at seeds 7000–7039 a run's
// pools peak at 176 pending, and arrival, which keeps removed slots until
// it compacts, at 201, every transaction of a 100-set run. So a run's
// pools admit without growing an index; a deeper pool grows them as it
// fills.
const indexDepth = 224

// New returns an empty pool.
func New(opts ...Option) *Pool {
	p := &Pool{
		arrival:   make([]*types.Transaction, 0, indexDepth),
		slot:      make(map[types.Hash]int, indexDepth),
		byNonce:   make(map[senderNonce]*types.Transaction, indexDepth),
		gasLimits: make(map[uint64]int),
		capacity:  65536,
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Watch subscribes fn to the pool's change feed: it is called
// synchronously, under the pool lock, for every add and remove, in
// mutation order. Before the first change, seed is called once — also
// under the pool lock, in the same critical section that registers fn —
// with the current pending set (arrival order, the shared read-only
// slice Snapshot returns) and its generation, so a watcher initialized by
// seed and updated by fn misses no mutation and sees none twice, even
// when other goroutines are mutating the pool while Watch is called.
// Both callbacks must be fast and must not call back into the pool.
func (p *Pool) Watch(seed func(pending []*types.Transaction, gen uint64), fn func(Change)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := p.snapshotLocked()
	seed(snap[:len(snap):len(snap)], p.gen)
	p.watchers = append(p.watchers, fn)
}

// Generation returns the pool's mutation counter. Two equal generations
// bracket an unchanged pending set.
func (p *Pool) Generation() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.gen
}

// Snapshot returns the pending transactions in arrival order without
// copying, plus the generation the snapshot corresponds to. The returned
// slice and transactions are shared: callers must not mutate them.
// Repeated calls at an unchanged generation return the same slice; the
// warm path takes only the read lock so concurrent readers don't
// serialize.
func (p *Pool) Snapshot() ([]*types.Transaction, uint64) {
	p.mu.RLock()
	snap, gen := p.snap, p.gen
	p.mu.RUnlock()
	if snap == nil {
		p.mu.Lock()
		snap, gen = p.snapshotLocked(), p.gen
		p.mu.Unlock()
	}
	return snap[:len(snap):len(snap)], gen
}

// SnapshotMinGas is Snapshot with the smallest GasLimit pending instead
// of the generation, both read under one lock: what a miner needs to
// assemble a block. An empty pool's smallest limit is the largest uint64.
// Finding it costs a pass over the distinct limits pending, not over the
// pool.
func (p *Pool) SnapshotMinGas() ([]*types.Transaction, uint64) {
	p.mu.RLock()
	snap, minGas := p.snap, p.minGasLocked()
	p.mu.RUnlock()
	if snap == nil {
		p.mu.Lock()
		snap, minGas = p.snapshotLocked(), p.minGasLocked()
		p.mu.Unlock()
	}
	return snap[:len(snap):len(snap)], minGas
}

func (p *Pool) minGasLocked() uint64 {
	least := ^uint64(0)
	for limit := range p.gasLimits {
		least = min(least, limit)
	}
	return least
}

func (p *Pool) snapshotLocked() []*types.Transaction {
	if p.snap == nil {
		p.snap = make([]*types.Transaction, 0, len(p.slot))
		for _, tx := range p.arrival {
			if tx != nil {
				p.snap = append(p.snap, tx)
			}
		}
	}
	return p.snap
}

// SnapshotGeneration reports whether pending is the slice Snapshot
// returns for the pool's current generation, and that generation. The
// cached snapshot is only ever appended to or dropped, so the same start
// and length mean the same content; a consumer holding state derived
// from the change feed (hms.Tracker) uses this to recognise a pending
// set it already knows.
func (p *Pool) SnapshotGeneration(pending []*types.Transaction) (uint64, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.snap == nil || len(pending) != len(p.snap) {
		return 0, false
	}
	return p.gen, len(pending) == 0 || &pending[0] == &p.snap[0]
}

// changedLocked records a mutation and fans it out to watchers while
// still holding the pool lock, preserving mutation order.
func (p *Pool) changedLocked(kind ChangeKind, tx *types.Transaction) {
	p.gen++
	if kind == TxAdded && p.snap != nil {
		p.snap = append(p.snap, tx)
	} else {
		p.snap = nil // drop the cache so it cannot pin evicted txs
	}
	if len(p.watchers) == 0 {
		return
	}
	c := Change{Kind: kind, Tx: tx, Gen: p.gen}
	for _, fn := range p.watchers {
		fn(c)
	}
}

// Add admits a transaction. Same-sender same-nonce transactions replace
// the resident one only at a strictly higher gas price.
func (p *Pool) Add(tx *types.Transaction) error {
	_, err := p.Admit(tx)
	return err
}

// Admit is Add returning the pool's memoized instance on success, so
// callers that immediately gossip the transaction can share the frozen
// copy instead of re-copying it per recipient. Every digest is derived
// once, and only when needed: a transaction the validator rejects costs
// at most its signing digest and the signature check, a duplicate those
// and the identity hash, and only an admitted one its marks.
func (p *Pool) Admit(tx *types.Transaction) (*types.Transaction, error) {
	tx, err := p.screen(tx)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.admitLocked(tx); err != nil {
		return nil, err
	}
	return tx, nil
}

// screen returns the instance the pool would keep for tx — validated,
// frozen, its identity hash derived — without taking the lock. An
// already-memoized transaction — a gossiped pool instance from another
// peer — is adopted as-is: it carries its derived data (identity hash,
// sig digest, mark, verified-signature flag), so admission is a cache hit
// with no copy and no re-derivation, and every pool in the process shares
// one frozen instance. Anything else becomes a frozen copy
// (types.FrozenCopy, one allocation) before the validator sees it: the
// signing digest the check derives and its verdict stay on the instance
// the pool keeps and gossips, whatever the caller does to its own
// meanwhile.
func (p *Pool) screen(tx *types.Transaction) (*types.Transaction, error) {
	if !tx.Memoized() {
		tx = types.FrozenCopy(tx)
	}
	if p.validate != nil {
		if err := p.validate(tx); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRejected, err)
		}
	}
	tx.Hash() // cached on the frozen instance; admitLocked reads it
	return tx, nil
}

// AdmitBatch admits a batch of transactions under ONE lock acquisition:
// copying, validation and identity hashing happen outside the lock, the
// per-transaction admission decisions (duplicate, replacement, capacity)
// run back-to-back inside it. Results align with txs: admitted[i] is the
// pool's memoized instance when errs[i] is nil, and nil otherwise.
// Admission order — and therefore the change feed watchers observe — is
// exactly the order of txs, identical to a sequence of individual Admit
// calls.
func (p *Pool) AdmitBatch(txs []*types.Transaction) (admitted []*types.Transaction, errs []error) {
	admitted = make([]*types.Transaction, len(txs))
	errs = make([]error, len(txs))
	for i, tx := range txs {
		admitted[i], errs[i] = p.screen(tx)
	}

	p.mu.Lock()
	for i, tx := range admitted {
		if tx == nil {
			continue // failed validation above
		}
		if err := p.admitLocked(tx); err != nil {
			admitted[i], errs[i] = nil, err
		}
	}
	p.mu.Unlock()
	return admitted, errs
}

// admitLocked runs the admission decision for a screened instance:
// duplicate and replacement checks, capacity policy, memoization and
// index insertion, plus the synchronous change feed. Callers hold p.mu.
func (p *Pool) admitLocked(tx *types.Transaction) error {
	hash := tx.Hash()
	if _, known := p.slot[hash]; known {
		return ErrAlreadyKnown
	}
	key := slotOf(tx)
	if prev, replacing := p.byNonce[key]; replacing {
		// A price bump swaps a resident tx, so it is admissible even at
		// capacity.
		if tx.GasPrice <= prev.GasPrice {
			return ErrUnderpriced
		}
		p.removeLocked(prev.Hash())
	} else if len(p.slot) >= p.capacity {
		if !p.evictLowest || !p.evictLowestLocked(tx.GasPrice) {
			return ErrPoolFull
		}
	}
	// Admitted: derive the marks, so every later Hash/Selector/FPV/Mark
	// access (views, mining, gossip) is a cached lookup.
	tx.Memoize()
	p.slot[hash] = len(p.arrival)
	p.arrival = append(p.arrival, tx)
	p.byNonce[key] = tx
	p.gasLimits[tx.GasLimit]++
	p.changedLocked(TxAdded, tx)
	return nil
}

// evictLowestLocked frees one slot for a newcomer paying price by
// evicting the oldest resident with the lowest gas price, scanning the
// canonical arrival order so the choice is deterministic. It reports
// whether a slot was freed (false when no resident is priced strictly
// below the newcomer).
func (p *Pool) evictLowestLocked(price uint64) bool {
	var victim *types.Transaction
	lowest := price
	for _, tx := range p.arrival {
		if tx != nil && tx.GasPrice < lowest {
			lowest, victim = tx.GasPrice, tx
		}
	}
	if victim == nil {
		return false
	}
	p.evicted++
	p.removeLocked(victim.Hash())
	return true
}

// Evicted returns the number of transactions displaced by the
// evict-lowest overflow policy.
func (p *Pool) Evicted() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.evicted
}

// Get returns the transaction with the given hash, or nil.
func (p *Pool) Get(hash types.Hash) *types.Transaction {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if i, ok := p.slot[hash]; ok {
		return p.arrival[i].Copy()
	}
	return nil
}

// Has reports whether the pool contains the hash.
func (p *Pool) Has(hash types.Hash) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	_, ok := p.slot[hash]
	return ok
}

// Len returns the number of pending transactions.
func (p *Pool) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.slot)
}

// Pending returns the pending transactions in real-time arrival order.
func (p *Pool) Pending() []*types.Transaction {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*types.Transaction, 0, len(p.slot))
	for _, tx := range p.arrival {
		if tx != nil {
			out = append(out, tx.Copy())
		}
	}
	return out
}

// Remove deletes the given transactions (e.g. after block inclusion).
func (p *Pool) Remove(hashes []types.Hash) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range hashes {
		p.removeLocked(h)
	}
}

// Settle drops an adopted block's transactions and what they left stale:
// a nonce below its sender's account nonce (nonceOf, after the block) can
// never be included. It does not sweep: with every adoption settled, a
// sweep finds two kinds of stale transaction the last settle did not. One
// holds a (sender, nonce) slot a block transaction consumed — an account
// nonce passes a nonce only that way — found by one lookup per included
// transaction. The other was admitted since, already stale (late gossip
// of a mined transaction): arrival[settled:]. A reorganisation is the
// same: every nonce from a sender's floor at the attach point to the new
// floor is a new-branch block transaction's, and a floor that moved down
// makes nothing stale. Watchers see the included transactions, then the
// slot competitors, both in block order, then the late arrivals as admitted.
func (p *Pool) Settle(included []*types.Transaction, nonceOf func(types.Address) uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, tx := range included {
		p.removeLocked(tx.Hash())
	}
	for _, tx := range included {
		if resident, ok := p.byNonce[slotOf(tx)]; ok {
			p.removeLocked(resident.Hash())
		}
	}
	// Removing compacts arrival, so the late arrivals are listed first.
	var late []types.Hash
	for _, tx := range p.arrival[p.settled:] {
		if tx != nil && tx.Nonce < nonceOf(tx.From) {
			late = append(late, tx.Hash())
		}
	}
	for _, h := range late {
		p.removeLocked(h)
	}
	p.settled = len(p.arrival)
}

// Clear empties the pool, notifying watchers of every eviction in
// arrival order.
func (p *Pool) Clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	arrival := p.arrival
	p.arrival, p.settled = nil, 0
	p.slot = make(map[types.Hash]int)
	p.byNonce = make(map[senderNonce]*types.Transaction)
	clear(p.gasLimits)
	for _, tx := range arrival {
		if tx != nil {
			p.changedLocked(TxRemoved, tx)
		}
	}
}

func (p *Pool) removeLocked(h types.Hash) {
	i, ok := p.slot[h]
	if !ok {
		return
	}
	tx := p.arrival[i]
	p.arrival[i] = nil
	delete(p.slot, h)
	if p.gasLimits[tx.GasLimit]--; p.gasLimits[tx.GasLimit] == 0 {
		delete(p.gasLimits, tx.GasLimit)
	}
	p.changedLocked(TxRemoved, tx)
	if key := slotOf(tx); p.byNonce[key] == tx {
		delete(p.byNonce, key)
	}
	// arrival is compacted lazily; drop the nil slots when the slice
	// grows far past the live set.
	if len(p.arrival) > 4*len(p.slot)+64 {
		live, settled := p.arrival[:0], 0
		for i, tx := range p.arrival {
			if tx != nil {
				if i < p.settled {
					settled++
				}
				p.slot[tx.Hash()] = len(live)
				live = append(live, tx)
			}
		}
		p.settled = settled
		clear(p.arrival[len(live):])
		p.arrival = live
	}
}
