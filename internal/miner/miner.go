// Package miner assembles blocks from the pending pool. Two ordering
// strategies reproduce the paper's scenarios: the baseline miner orders
// by gas price with seeded-arbitrary tie-breaking (miner privilege,
// §II-C) while respecting per-sender nonce order; the semantic miner
// (§V-C) orders the block by the Hash-Mark-Set series, interleaving every
// set with its dependent buys so the interleaving matches the
// READ-UNCOMMITTED views clients used when submitting. An ordering is a
// cursor the miner pulls until the block is full, so a block costs what
// it holds, not what the pool holds.
package miner

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"sereth/internal/chain"
	"sereth/internal/hms"
	"sereth/internal/statedb"
	"sereth/internal/types"
)

// Strategy orders a pending-pool snapshot into a block body candidate,
// handed over one transaction at a time. nextNonce exposes the current
// account nonces so strategies can avoid proposing gapped bodies.
//
// The pull contract: what a call does to the strategy itself — one jitter
// per element of the rest per call, a censor's exclusion count — is done
// when Pull returns, however far the cursor is pulled. Only ranking,
// sorting and the nonce repair wait for a transaction to need them.
type Strategy interface {
	Pull(pending []*types.Transaction, nextNonce func(types.Address) uint64) Cursor
}

// Cursor is an ordering being pulled: Next is nil once it is exhausted.
type Cursor interface {
	Next() *types.Transaction
}

// collect pulls a cursor dry.
func collect(c Cursor, sizeHint int) []*types.Transaction {
	out := make([]*types.Transaction, 0, sizeHint)
	for tx := c.Next(); tx != nil; tx = c.Next() {
		out = append(out, tx)
	}
	return out
}

// Baseline is the standard-client ordering: highest gas price first,
// same-price transactions roughly in the order they reached this miner's
// pool, perturbed by a bounded reorder window. This mirrors unmodified
// geth, whose price-and-nonce heap breaks same-price ties by arrival
// order modulo heap nondeterminism and gossip skew — the "arbitrary total
// order" of miner privilege (§II-C). Per-sender nonce order is always
// preserved.
type Baseline struct {
	rng *rand.Rand
	// reorderWindow is the reordering noise amplitude in transaction
	// positions: each transaction's effective arrival rank is its pool
	// index plus uniform(0, reorderWindow). Zero means pure FIFO.
	reorderWindow int
}

var _ Strategy = (*Baseline)(nil)

// DefaultReorderWindow approximates a few seconds of gossip and heap
// skew at the paper's 1 tx/s submission rate.
const DefaultReorderWindow = 8

// NewBaseline returns a baseline strategy with a deterministic seed and
// the default reorder window.
func NewBaseline(seed int64) *Baseline {
	return NewBaselineWindow(seed, DefaultReorderWindow)
}

// NewBaselineWindow returns a baseline strategy with an explicit reorder
// window (0 = FIFO).
func NewBaselineWindow(seed int64, window int) *Baseline {
	return &Baseline{rng: rand.New(rand.NewSource(seed)), reorderWindow: window}
}

// Pull implements Strategy: sort by (price desc, jittered arrival rank),
// then repair per-sender nonce order.
func (b *Baseline) Pull(pending []*types.Transaction, nextNonce func(types.Address) uint64) Cursor {
	return newRepair(nil, b.draw(pending, nil), nextNonce)
}

// Order is Pull collected into a slice.
func (b *Baseline) Order(pending []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
	return collect(b.Pull(pending, nextNonce), len(pending))
}

type ranked struct {
	tx   *types.Transaction
	rank float64
}

// sorted yields txs less except by (price desc, rank asc), found, ranked
// and sorted on the first pull: a block that fills first never pays.
type sorted struct {
	txs, except []*types.Transaction
	ranked      []ranked // the ranks draw took; nil for FIFO
	next        int
	ready       bool
}

// draw takes the randomness of ordering pending less except (distinct
// transactions of pending) before anything is pulled: the generator stands
// where an eager ordering leaves it. A FIFO miner draws nothing.
func (b *Baseline) draw(pending, except []*types.Transaction) *sorted {
	s := &sorted{txs: pending, except: except}
	if b.reorderWindow > 0 {
		s.ranked = make([]ranked, len(pending)-len(except))
		for i := range s.ranked {
			s.ranked[i].rank = float64(i) + b.rng.Float64()*float64(b.reorderWindow)
		}
	}
	return s
}

func (s *sorted) Next() *types.Transaction {
	if !s.ready {
		s.ready = true
		// except holds txs' own pointers, so identity finds the rest
		// without hashing.
		scheduled := make(map[*types.Transaction]struct{}, len(s.except))
		for _, tx := range s.except {
			scheduled[tx] = struct{}{}
		}
		if s.ranked == nil { // FIFO: equal ranks, and the sort is stable
			s.ranked = make([]ranked, len(s.txs)-len(s.except))
		}
		rest := 0
		for _, tx := range s.txs {
			if _, ok := scheduled[tx]; !ok {
				if rest < len(s.ranked) {
					s.ranked[rest].tx = tx
				}
				rest++
			}
		}
		if rest != len(s.ranked) {
			panic(fmt.Sprintf("miner: %d transactions ranked for a rest of %d: the semantic prefix is not distinct transactions of pending", len(s.ranked), rest))
		}
		slices.SortStableFunc(s.ranked, func(a, b ranked) int {
			if a.tx.GasPrice != b.tx.GasPrice {
				return cmp.Compare(b.tx.GasPrice, a.tx.GasPrice)
			}
			return cmp.Compare(a.rank, b.rank)
		})
	}
	if s.next == len(s.ranked) {
		return nil
	}
	s.next++
	return s.ranked[s.next-1].tx
}

// Semantic orders the block by the HMS series: buys bound to the
// committed interval first, then each pending set followed by the buys
// that depend on its mark, then everything else in baseline order.
type Semantic struct {
	tracker  *hms.Tracker
	fallback *Baseline
}

var _ Strategy = (*Semantic)(nil)

// NewSemantic returns a semantic-mining strategy.
func NewSemantic(tracker *hms.Tracker, seed int64) *Semantic {
	return NewSemanticWindow(tracker, seed, DefaultReorderWindow)
}

// NewSemanticWindow returns a semantic strategy whose fallback ordering
// uses an explicit reorder window.
func NewSemanticWindow(tracker *hms.Tracker, seed int64, window int) *Semantic {
	return &Semantic{tracker: tracker, fallback: NewBaselineWindow(seed, window)}
}

// Pull implements Strategy. The tracker supplies the semantic prefix —
// off the dag its pool's feed maintains when pending is the attached
// pool's current snapshot, off a dag filled with pending otherwise — and
// everything else (non-HMS traffic, orphaned sets and buys) follows in
// baseline order.
//
// The rest passes two nonce repairs, its own and the whole body's. The
// inner one knows nothing of the prefix: it discards a rest transaction
// whose predecessor nonce sits in the prefix as premature, instead of
// placing it behind its predecessor. Blocks depend on that.
func (m *Semantic) Pull(pending []*types.Transaction, nextNonce func(types.Address) uint64) Cursor {
	prefix, _ := m.tracker.SemanticPrefix(pending)
	return newRepair(prefix, newRepair(nil, m.fallback.draw(pending, prefix), nextNonce), nextNonce)
}

// Order is Pull collected into a slice.
func (m *Semantic) Order(pending []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
	return collect(m.Pull(pending, nextNonce), len(pending))
}

// senderState is the nonce repair's per-sender bookkeeping.
type senderState struct {
	want     uint64               // next nonce the body may carry
	deferred []*types.Transaction // premature txs waiting for want
	unsorted bool                 // deferred has grown since its last sort
}

// repair enforces the protocol invariant that a block may not contain a
// sender's transactions out of nonce order or with gaps (§II-C): of what
// it pulls — first, then in — stale nonces are dropped, premature ones
// deferred until their predecessors are placed, and unplaceable ones
// discarded. One address-keyed lookup per transaction pulled: the map
// holds indices into a slice of value-typed sender states.
type repair struct {
	first     []*types.Transaction
	in        Cursor
	nextNonce func(types.Address) uint64
	index     map[types.Address]int
	senders   []senderState
	draining  int // the sender whose placement may have unblocked deferred txs, or -1
}

func newRepair(first []*types.Transaction, in Cursor, nextNonce func(types.Address) uint64) *repair {
	return &repair{first: first, in: in, nextNonce: nextNonce, index: make(map[types.Address]int), draining: -1}
}

func (r *repair) Next() *types.Transaction {
	for {
		if r.draining >= 0 {
			s := &r.senders[r.draining]
			if q := s.deferred; len(q) > 0 && q[0].Nonce == s.want {
				s.want++
				s.deferred = q[1:]
				return q[0]
			}
			r.draining = -1
		}
		var tx *types.Transaction
		if len(r.first) > 0 {
			tx, r.first = r.first[0], r.first[1:]
		} else if tx = r.in.Next(); tx == nil {
			return nil
		}
		i, ok := r.index[tx.From]
		if !ok {
			i = len(r.senders)
			r.index[tx.From] = i
			r.senders = append(r.senders, senderState{want: r.nextNonce(tx.From)})
		}
		s := &r.senders[i]
		if tx.Nonce > s.want {
			s.deferred, s.unsorted = append(s.deferred, tx), true
			continue
		}
		// Drain what this unblocks: one sort per refill, not per drained tx.
		if q := s.deferred; s.unsorted {
			sort.Slice(q, func(i, j int) bool { return q[i].Nonce < q[j].Nonce })
			s.unsorted = false
		}
		r.draining = i
		if tx.Nonce == s.want {
			s.want++
			return tx
		} // a stale nonce drops silently
	}
}

// PendingSource is the pool view a miner consumes.
type PendingSource interface {
	Pending() []*types.Transaction
}

// snapshotter is the optional zero-copy pool view (txpool.Pool's
// Snapshot): shared, memoized transaction pointers instead of a deep
// copy per BuildBlock. Strategies treat pending transactions as
// read-only, so sharing is safe.
type snapshotter interface {
	Snapshot() ([]*types.Transaction, uint64)
}

// Miner builds sealed blocks on top of a chain.
type Miner struct {
	chain    *chain.Chain
	pool     PendingSource
	strategy Strategy
	coinbase types.Address
	// maxSealIter bounds the PoW nonce search.
	maxSealIter uint64
}

// NewMiner returns a miner using the given ordering strategy.
func NewMiner(c *chain.Chain, pool PendingSource, strategy Strategy, coinbase types.Address) *Miner {
	return &Miner{
		chain:       c,
		pool:        pool,
		strategy:    strategy,
		coinbase:    coinbase,
		maxSealIter: 1 << 24,
	}
}

// BuildBlock assembles, executes and seals the next block at the given
// model timestamp. The block is NOT inserted; callers broadcast it and
// every other peer validates it by replay (§II-D).
func (m *Miner) BuildBlock(timestamp uint64) (*types.Block, error) {
	block, _, err := m.Build(timestamp)
	return block, err
}

// Build is BuildBlock that also returns the execution the header was
// built from, for the miner's own import: chain.InsertBuilt checks the
// sealed header against it instead of executing the body a second time.
func (m *Miner) Build(timestamp uint64) (*types.Block, *chain.ExecResult, error) {
	// One lock acquisition, so the header always describes the block whose
	// state the body runs on. The head state is flushed and never written
	// again (chain.adopt), so it is read here as it is — nonces below, then
	// Process, which takes the one copy a build needs.
	var head *types.Block
	var state *statedb.StateDB
	m.chain.ReadHeadState(func(h *types.Block, st *statedb.StateDB) { head, state = h, st })
	var pending []*types.Transaction
	if s, ok := m.pool.(snapshotter); ok {
		pending, _ = s.Snapshot()
	} else {
		pending = m.pool.Pending()
	}
	// Trim to the block gas limit using the declared per-tx limits. Once
	// a sender's transaction does not fit, their later ones would leave a
	// nonce gap and are skipped with it. The ordering is pulled while the
	// smallest pending GasLimit still fits: it bounds whatever the cursor
	// has left and budget only grows, so past that point nothing is placed,
	// which is where the eager trim's first-miss rule stopped. Only a block
	// full in that sense — against every pending transaction, censored and
	// unplaceable ones included — costs O(block).
	limit := m.chain.Config().GasLimit
	minGas := ^uint64(0)
	for _, tx := range pending {
		minGas = min(minGas, tx.GasLimit)
	}
	// The block keeps body's backing array: size it by what can fit.
	body := make([]*types.Transaction, 0, min(uint64(len(pending)), limit/max(minGas, 1)))
	ordering := m.strategy.Pull(pending, state.GetNonce)
	var budget uint64                          // <= limit
	gapped := make(map[types.Address]struct{}) // senders with a tx skipped for gas
	for minGas <= limit-budget {
		tx := ordering.Next()
		if tx == nil {
			break
		}
		if _, gap := gapped[tx.From]; gap {
			continue
		}
		if tx.GasLimit > limit-budget {
			gapped[tx.From] = struct{}{}
			continue
		}
		budget += tx.GasLimit
		body = append(body, tx)
	}

	header := &types.Header{
		ParentHash: head.Hash(),
		Number:     head.Number() + 1,
		Coinbase:   m.coinbase,
		Difficulty: m.chain.Config().Difficulty,
		GasLimit:   limit,
		Time:       timestamp,
	}
	res, err := m.chain.Process(state, header, body)
	if err != nil {
		return nil, nil, fmt.Errorf("build block %d: %w", header.Number, err)
	}
	// Deriving the tx root through the block memoizes it on the instance
	// every peer will import, so no importer ever re-derives it; the
	// state and receipt roots come memoized from the processor's single
	// derivation.
	block := &types.Block{Header: header, Txs: body}
	header.TxRoot = block.TxRoot()
	header.ReceiptRoot = res.ReceiptRoot
	header.StateRoot = res.StateRoot
	header.GasUsed = res.GasUsed
	if !chain.Seal(header, m.chain.Config().Difficulty, m.maxSealIter) {
		return nil, nil, fmt.Errorf("build block %d: seal search exhausted", header.Number)
	}
	// The execution goes to the caller, not into the chain's ExecCache: it
	// is memoized only once the miner's import (InsertBuilt) has compared
	// every root against the sealed header, and from then on it is what
	// the other in-process peers adopt.
	return block, res, nil
}
