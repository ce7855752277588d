// Package miner assembles blocks from the pending pool. Two ordering
// strategies reproduce the paper's scenarios: the baseline miner orders
// by gas price with seeded-arbitrary tie-breaking (miner privilege,
// §II-C) while respecting per-sender nonce order; the semantic miner
// (§V-C) orders the block by the Hash-Mark-Set series, interleaving every
// set with its dependent buys so the interleaving matches the
// READ-UNCOMMITTED views clients used when submitting. An ordering is a
// cursor the miner pulls until the block is full, and the smallest
// pending GasLimit that stops the pull comes from the pool's count of
// its limits, so a block costs what it holds, not what the pool holds.
// The one O(pool) step left is the pool's: the first snapshot after a
// removal rebuilds the pending slice.
//
// A cursor is scratch the strategy owns: its ranks, its nonce repair's
// sender states and deferred queues and the semantic prefix live in the
// strategy and are reused by its next Pull, so a block's ordering
// allocates nothing once the strategy has seen one of its shape, a
// censor's included: it hands its strategy the snapshot and the senders
// to leave out, not a copy without them. A Pull
// therefore invalidates the strategy's previous cursor, and Build
// empties the scratch of every transaction before it returns, so an idle
// miner pins none the pool has since dropped.
package miner

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"sereth/internal/chain"
	"sereth/internal/hms"
	"sereth/internal/statedb"
	"sereth/internal/txpool"
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
//
// The strategies are this package's: pull and release are unexported.
type Strategy interface {
	// Pull returns the ordering of pending as a cursor. The cursor lives
	// in the strategy's scratch, so it is valid until the strategy's next
	// Pull, which reuses that scratch; a strategy pulls one ordering at a
	// time and is not safe for concurrent use (Baseline's generator never
	// was).
	Pull(pending []*types.Transaction, nextNonce func(types.Address) uint64) Cursor
	// pull is Pull of pending less what ex leaves out: the ordering
	// Pull gives a copy of pending without those transactions.
	pull(pending []*types.Transaction, ex exclusion, nextNonce func(types.Address) uint64) Cursor
	// release drops every transaction and state the last cursor holds in
	// the scratch, keeping the scratch's arrays and maps for the next Pull.
	release()
}

// exclusion is what a censor leaves out of an ordering: the pending
// transactions of senders, n of them.
type exclusion struct {
	senders map[types.Address]struct{}
	n       int
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

// order is a strategy's Pull collected into a slice, its scratch released.
func order(s Strategy, pending []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
	out := collect(s.Pull(pending, nextNonce), len(pending))
	s.release()
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
	// sorted and repair are the scratch of the cursor Pull returns (the
	// rest's, when the baseline is a semantic strategy's fallback).
	sorted sorted
	repair repair
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
	return b.pull(pending, exclusion{}, nextNonce)
}

func (b *Baseline) pull(pending []*types.Transaction, ex exclusion, nextNonce func(types.Address) uint64) Cursor {
	return b.rest(pending, nil, ex, nextNonce)
}

// rest is Pull over pending less except (distinct transactions of
// pending, none of them left out by ex) and less what ex leaves out.
func (b *Baseline) rest(pending, except []*types.Transaction, ex exclusion, nextNonce func(types.Address) uint64) *repair {
	b.repair.reset(nil, b.draw(pending, except, ex), nextNonce)
	return &b.repair
}

func (b *Baseline) release() {
	b.sorted.release()
	b.repair.release()
}

// Order is Pull collected into a slice.
func (b *Baseline) Order(pending []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
	return order(b, pending, nextNonce)
}

type ranked struct {
	tx   *types.Transaction
	rank float64
}

// sorted yields txs less except and the excluded senders' by (price
// desc, rank asc), found, ranked and sorted on the first pull: a block
// that fills first never pays.
type sorted struct {
	txs, except []*types.Transaction
	excluded    map[types.Address]struct{}
	ranked      []ranked // the ranks draw took; all zero for FIFO
	// scheduled is except as a set while the rest is looked for, and
	// empty otherwise.
	scheduled map[*types.Transaction]struct{}
	next      int
	ready     bool
}

// draw takes the randomness of ordering the rest (see Baseline.rest)
// before anything is pulled: the generator stands where an eager
// ordering leaves it. A FIFO miner draws nothing.
func (b *Baseline) draw(pending, except []*types.Transaction, ex exclusion) *sorted {
	s := &b.sorted
	n := len(pending) - len(except) - ex.n
	*s = sorted{txs: pending, except: except, excluded: ex.senders, ranked: slices.Grow(s.ranked[:0], n)[:n], scheduled: s.scheduled}
	if b.reorderWindow > 0 {
		for i := range s.ranked {
			s.ranked[i].rank = float64(i) + b.rng.Float64()*float64(b.reorderWindow)
		}
	} else {
		clear(s.ranked) // FIFO: equal ranks, and the sort is stable
	}
	return s
}

func (s *sorted) Next() *types.Transaction {
	if !s.ready {
		s.ready = true
		// except holds txs' own pointers, so identity finds the rest
		// without hashing.
		if s.scheduled == nil {
			s.scheduled = make(map[*types.Transaction]struct{}, len(s.except))
		}
		for _, tx := range s.except {
			s.scheduled[tx] = struct{}{}
		}
		rest := 0
		for _, tx := range s.txs {
			_, ok := s.scheduled[tx]
			if _, out := s.excluded[tx.From]; !ok && !out {
				if rest < len(s.ranked) {
					s.ranked[rest].tx = tx
				}
				rest++
			}
		}
		clear(s.scheduled)
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

// release drops the transactions the cursor ranked and the slices it
// ordered, keeping the rank array.
func (s *sorted) release() {
	clear(s.ranked[:cap(s.ranked)])
	*s = sorted{ranked: s.ranked[:0], scheduled: s.scheduled}
}

// Semantic orders the block by the HMS series: buys bound to the
// committed interval first, then each pending set followed by the buys
// that depend on its mark, then everything else in baseline order.
type Semantic struct {
	tracker  *hms.Tracker
	fallback *Baseline
	prefix   []*types.Transaction // the prefix the tracker appended: scratch
	body     repair               // the whole body's nonce repair, around the fallback's
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
	return m.pull(pending, exclusion{}, nextNonce)
}

// pull reads the prefix of pending less what ex leaves out off the same
// dag (hms.Tracker.AppendSemanticPrefix), into the strategy's scratch.
func (m *Semantic) pull(pending []*types.Transaction, ex exclusion, nextNonce func(types.Address) uint64) Cursor {
	m.prefix, _ = m.tracker.AppendSemanticPrefix(m.prefix[:0], pending, ex.senders)
	m.body.reset(m.prefix, m.fallback.rest(pending, m.prefix, ex, nextNonce), nextNonce)
	return &m.body
}

func (m *Semantic) release() {
	clear(m.prefix[:cap(m.prefix)])
	m.prefix = m.prefix[:0]
	m.fallback.release()
	m.body.release()
}

// Order is Pull collected into a slice.
func (m *Semantic) Order(pending []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
	return order(m, pending, nextNonce)
}

// senderState is the nonce repair's per-sender bookkeeping.
type senderState struct {
	want uint64 // next nonce the body may carry
	// deferred[head:] are the premature txs waiting for want; the array
	// is kept from one repair to the next.
	deferred []*types.Transaction
	head     int
	unsorted bool // deferred has grown since its last sort
}

// repair enforces the protocol invariant that a block may not contain a
// sender's transactions out of nonce order or with gaps (§II-C): of what
// it pulls — first, then in — stale nonces are dropped, premature ones
// deferred until their predecessors are placed, and unplaceable ones
// discarded. One address-keyed lookup per transaction pulled: the map
// holds indices into a slice of value-typed sender states. The map, the
// states and their queues' arrays are reused by the next reset.
type repair struct {
	first     []*types.Transaction
	in        Cursor
	nextNonce func(types.Address) uint64
	index     map[types.Address]int
	senders   []senderState
	draining  int // the sender whose placement may have unblocked deferred txs, or -1
}

// reset starts the repair of first, then in.
func (r *repair) reset(first []*types.Transaction, in Cursor, nextNonce func(types.Address) uint64) {
	if r.index == nil {
		r.index = make(map[types.Address]int)
	}
	clear(r.index)
	r.first, r.in, r.nextNonce, r.senders, r.draining = first, in, nextNonce, r.senders[:0], -1
}

// release drops the transactions the repair deferred and what it pulled
// from.
func (r *repair) release() {
	for _, s := range r.senders[:cap(r.senders)] {
		clear(s.deferred[:cap(s.deferred)])
	}
	r.first, r.in, r.nextNonce = nil, nil, nil
}

func (r *repair) Next() *types.Transaction {
	for {
		if r.draining >= 0 {
			s := &r.senders[r.draining]
			if q := s.deferred[s.head:]; len(q) > 0 && q[0].Nonce == s.want {
				s.want++
				s.head++
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
			if i < cap(r.senders) { // a state of an earlier repair: keep its queue's array
				r.senders = r.senders[:i+1]
				r.senders[i] = senderState{want: r.nextNonce(tx.From), deferred: r.senders[i].deferred[:0]}
			} else {
				r.senders = append(r.senders, senderState{want: r.nextNonce(tx.From)})
			}
		}
		s := &r.senders[i]
		if tx.Nonce > s.want {
			s.deferred, s.unsorted = append(s.deferred, tx), true
			continue
		}
		// Drain what this unblocks: one sort per refill, not per drained tx.
		if q := s.deferred[s.head:]; s.unsorted {
			slices.SortFunc(q, func(a, b *types.Transaction) int { return cmp.Compare(a.Nonce, b.Nonce) })
			s.unsorted = false
		}
		r.draining = i
		if tx.Nonce == s.want {
			s.want++
			return tx
		} // a stale nonce drops silently
	}
}

// Miner builds sealed blocks on top of a chain.
type Miner struct {
	chain    *chain.Chain
	pool     *txpool.Pool
	strategy Strategy
	coinbase types.Address
	// maxSealIter bounds the PoW nonce search.
	maxSealIter uint64
}

// NewMiner returns a miner using the given ordering strategy.
func NewMiner(c *chain.Chain, pool *txpool.Pool, strategy Strategy, coinbase types.Address) *Miner {
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
	// state the body runs on; its parent hash is the one the chain keeps
	// for its head, not a digest of the head's header. The head state is
	// flushed and never written again (chain.adopt), so it is read here as
	// it is — nonces below, then Process, which takes the one copy a build
	// needs.
	var head *types.Block
	var headHash types.Hash
	var state *statedb.StateDB
	m.chain.ReadHeadState(func(h *types.Block, hash types.Hash, st *statedb.StateDB) { head, headHash, state = h, hash, st })
	// The pool's shared snapshot: strategies treat pending transactions
	// as read-only.
	pending, minGas := m.pool.SnapshotMinGas()
	// Trim to the block gas limit using the declared per-tx limits. Once
	// a sender's transaction does not fit, their later ones would leave a
	// nonce gap and are skipped with it. The ordering is pulled while the
	// smallest pending GasLimit still fits: it bounds whatever the cursor
	// has left and budget only grows, so past that point nothing is placed,
	// which is where the eager trim's first-miss rule stopped. Only a block
	// full in that sense — against every pending transaction, censored and
	// unplaceable ones included — costs O(block).
	limit := m.chain.Config().GasLimit
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
	m.strategy.release()

	header := &types.Header{
		ParentHash: headHash,
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
