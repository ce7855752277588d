// Package miner assembles blocks from the pending pool. Two ordering
// strategies reproduce the paper's scenarios: the baseline miner orders
// by gas price with seeded-arbitrary tie-breaking (miner privilege,
// §II-C) while respecting per-sender nonce order; the semantic miner
// (§V-C) orders the block by the Hash-Mark-Set series, interleaving every
// set with its dependent buys so the interleaving matches the
// READ-UNCOMMITTED views clients used when submitting.
package miner

import (
	"fmt"
	"math/rand"
	"sort"

	"sereth/internal/chain"
	"sereth/internal/hms"
	"sereth/internal/statedb"
	"sereth/internal/types"
)

// Strategy orders a pending-pool snapshot into a block body candidate.
// nextNonce exposes the current account nonces so strategies can avoid
// proposing gapped bodies.
type Strategy interface {
	Order(pending []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction
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

// Order implements Strategy: sort by (price desc, jittered arrival rank),
// then repair per-sender nonce order.
func (b *Baseline) Order(pending []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
	type ranked struct {
		tx   *types.Transaction
		rank float64
	}
	rankedTxs := make([]ranked, len(pending))
	for i, tx := range pending {
		jitter := 0.0
		if b.reorderWindow > 0 {
			jitter = b.rng.Float64() * float64(b.reorderWindow)
		}
		rankedTxs[i] = ranked{tx: tx, rank: float64(i) + jitter}
	}
	sort.SliceStable(rankedTxs, func(i, j int) bool {
		if rankedTxs[i].tx.GasPrice != rankedTxs[j].tx.GasPrice {
			return rankedTxs[i].tx.GasPrice > rankedTxs[j].tx.GasPrice
		}
		return rankedTxs[i].rank < rankedTxs[j].rank
	})
	out := make([]*types.Transaction, len(rankedTxs))
	for i, r := range rankedTxs {
		out[i] = r.tx
	}
	return repairNonceOrder(out, nextNonce)
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

// Order implements Strategy. The tracker supplies the semantic prefix —
// off its live DAG when pending is the attached pool's current snapshot,
// from scratch otherwise — and everything else (non-HMS traffic,
// orphaned sets and buys) follows in baseline order.
func (m *Semantic) Order(pending []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
	prefix, _ := m.tracker.SemanticPrefix(pending)
	rest := pending
	if len(prefix) > 0 {
		// The prefix holds pending's own pointers, so identity finds the
		// rest without hashing.
		scheduled := make(map[*types.Transaction]struct{}, len(prefix))
		for _, tx := range prefix {
			scheduled[tx] = struct{}{}
		}
		rest = make([]*types.Transaction, 0, len(pending)-len(prefix))
		for _, tx := range pending {
			if _, ok := scheduled[tx]; !ok {
				rest = append(rest, tx)
			}
		}
	}
	return repairNonceOrder(append(prefix, m.fallback.Order(rest, nextNonce)...), nextNonce)
}

// senderState is repairNonceOrder's per-sender bookkeeping.
type senderState struct {
	want     uint64               // next nonce the body may carry
	deferred []*types.Transaction // premature txs waiting for want
}

// repairNonceOrder enforces the protocol invariant that a block may not
// contain a sender's transactions out of nonce order or with gaps
// (§II-C): stale nonces are dropped, premature ones deferred until their
// predecessors are placed, and unplaceable ones discarded. One
// address-keyed lookup per transaction: the map holds indices into a
// slice of value-typed sender states.
func repairNonceOrder(desired []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
	index := make(map[types.Address]int)
	var senders []senderState
	out := make([]*types.Transaction, 0, len(desired))
	for _, tx := range desired {
		i, ok := index[tx.From]
		if !ok {
			i = len(senders)
			index[tx.From] = i
			senders = append(senders, senderState{want: nextNonce(tx.From)})
		}
		s := &senders[i]
		switch {
		case tx.Nonce > s.want:
			s.deferred = append(s.deferred, tx)
			continue
		case tx.Nonce == s.want:
			out = append(out, tx)
			s.want++
		} // a stale nonce drops silently
		// Drain any deferred txs unblocked by this placement.
		for q := s.deferred; len(q) > 0; q = s.deferred {
			sort.Slice(q, func(i, j int) bool { return q[i].Nonce < q[j].Nonce })
			if q[0].Nonce != s.want {
				break
			}
			out = append(out, q[0])
			s.want++
			s.deferred = q[1:]
		}
	}
	return out
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
	ordered := m.strategy.Order(pending, state.GetNonce)

	// Trim to the block gas limit using the declared per-tx limits. Once
	// a sender's transaction does not fit, their later ones would leave a
	// nonce gap and are skipped with it.
	limit := m.chain.Config().GasLimit
	var budget uint64
	var gapped map[types.Address]struct{} // senders with a tx skipped for gas
	body := make([]*types.Transaction, 0, len(ordered))
	for i, tx := range ordered {
		if _, gap := gapped[tx.From]; gap {
			continue
		}
		if budget+tx.GasLimit > limit {
			if gapped == nil {
				// The first miss: when nothing behind it fits either — a
				// full block over a deep pool — the body is complete.
				smallest := tx.GasLimit
				for _, later := range ordered[i+1:] {
					smallest = min(smallest, later.GasLimit)
				}
				if budget+smallest > limit {
					break
				}
				gapped = make(map[types.Address]struct{})
			}
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
	// The execution goes to the caller, not into the chain's ExecCache: the
	// cache holds importer-side replays only, so the first other peer to
	// import the block performs an honest replay of its own, and the
	// miner's import still compares every root against the sealed header.
	return block, res, nil
}
