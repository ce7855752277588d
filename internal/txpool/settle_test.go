package txpool_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/hms"
	"sereth/internal/txpool"
	"sereth/internal/types"
)

var market = types.Address{19: 0xcc}

// watched is a pool with a tracker attached and its change feed recorded.
type watched struct {
	pool    *txpool.Pool
	tracker *hms.Tracker
	feed    []string // "+hash" / "-hash", oldest first
}

func newWatched(opts ...txpool.Option) *watched {
	w := &watched{
		pool:    txpool.New(opts...),
		tracker: hms.NewTracker(hms.Config{Contract: market, SetSelector: asm.SelSet, BuySelector: asm.SelBuy}),
	}
	w.tracker.Attach(w.pool)
	w.pool.Watch(func([]*types.Transaction, uint64) {}, func(c txpool.Change) {
		w.feed = append(w.feed, fmt.Sprintf("%c%x", "?+-"[c.Kind], c.Tx.Hash()))
	})
	return w
}

// sweep settles the way the node did before Settle: the block's hashes
// out, then every sender's nonce map walked for stale transactions.
func (w *watched) sweep(blocks [][]*types.Transaction, nonceOf func(types.Address) uint64) {
	var hashes []types.Hash
	for _, b := range blocks {
		for _, tx := range b {
			hashes = append(hashes, tx.Hash())
		}
	}
	w.pool.Remove(hashes)
	w.pool.RemoveStale(nonceOf)
}

// settleModel is a chain small enough to be obviously right — a list of
// blocks; an account's nonce is how many of its transactions they hold —
// and the traffic two pools under it have to agree on.
type settleModel struct {
	rng    *rand.Rand
	chain  [][]*types.Transaction
	floor  map[types.Address]uint64 // account nonces at the head
	next   [8]uint64                // next nonce each sender signs with
	mined  []*types.Transaction     // in some block, adopted or orphaned: gossip may bring them back
	marks  []types.Word
	serial uint64 // makes every signed payload distinct

	competitors, late int // stale transactions of each kind the blocks made
}

func sameTx(x, y *types.Transaction) bool { return x.Hash() == y.Hash() }

func sender(s int) types.Address { return types.Address{18: 1, 19: byte(s + 1)} }

func (m *settleModel) nonceOf(a types.Address) uint64 { return m.floor[a] }

// sign makes the next distinct transaction.
func (m *settleModel) sign(s int, nonce, price uint64) *types.Transaction {
	m.serial++
	tx := &types.Transaction{Nonce: nonce, From: sender(s), To: market, GasPrice: price, GasLimit: 100}
	prev := m.marks[len(m.marks)-1-m.rng.Intn(min(4, len(m.marks)))]
	switch value := types.WordFromUint64(m.serial); m.rng.Intn(3) {
	case 0:
		tx.Data = types.EncodeCall(asm.SelSet, types.FlagChain, prev, value)
		m.marks = append(m.marks, types.NextMark(prev, value))
	case 1:
		tx.Data = types.EncodeCall(asm.SelBuy, types.FlagChain, prev, value)
	default:
		tx.To, tx.Data = types.Address{19: 0xdd}, value[24:]
	}
	return tx.Memoize()
}

// block draws the next block on top of m.floor and moves the floor: each
// transaction takes its sender's next slot, from the pool when it holds
// one there and the coin says so, from another miner's pool otherwise.
func (m *settleModel) block(pool *txpool.Pool) []*types.Transaction {
	resident := pool.BySender()
	var out []*types.Transaction
	for n := m.rng.Intn(6); n > 0; n-- {
		s := m.rng.Intn(len(m.next))
		from := sender(s)
		nonce := m.floor[from]
		var tx *types.Transaction
		for _, r := range resident[from] {
			if r.Nonce == nonce {
				tx = r
			}
		}
		if tx == nil || m.rng.Intn(3) == 0 {
			if tx != nil {
				m.competitors++
			}
			tx = m.sign(s, nonce, 10)
		}
		out = append(out, tx)
		m.floor[from] = nonce + 1
		m.next[s] = max(m.next[s], nonce+1)
	}
	m.mined = append(m.mined, out...)
	if len(m.mined) > 64 {
		m.mined = m.mined[len(m.mined)-64:]
	}
	m.chain = append(m.chain, out)
	return out
}

// reorg drops the last blocks and grows a longer branch in their place;
// account nonces go down to the attach point and up again.
func (m *settleModel) reorg(pool *txpool.Pool) [][]*types.Transaction {
	depth := 1 + m.rng.Intn(min(3, len(m.chain)))
	m.chain = m.chain[:len(m.chain)-depth]
	clear(m.floor)
	for _, b := range m.chain {
		for _, tx := range b {
			m.floor[tx.From] = tx.Nonce + 1
		}
	}
	var branch [][]*types.Transaction
	for i := 0; i <= depth; i++ {
		branch = append(branch, m.block(pool))
	}
	return branch
}

// TestSettleModel settles twin pools under the same random traffic, one
// with Settle and one with the full sweep it replaced, each with a
// tracker attached: fresh, duplicate, underpriced and price-bumping
// admissions, transactions stale when they arrive, mined transactions
// gossiped again, eviction at capacity, blocks that take their
// transactions from this pool or from another miner's (a resident then
// holds a slot the block consumed), reorganisations, Clear. After every
// step the pools hold the same transactions in the same order, index the
// same senders, told their watchers the same things, and their trackers
// serve the same view.
func TestSettleModel(t *testing.T) {
	steps := 6000
	if testing.Short() {
		steps = 1500 // order-smoke repeats it ten times under the race detector
	}
	m := &settleModel{rng: rand.New(rand.NewSource(19)), floor: map[types.Address]uint64{}, marks: []types.Word{{}}}
	a, b := newWatched(txpool.WithCapacity(20), txpool.WithEvictLowest()), newWatched(txpool.WithCapacity(20), txpool.WithEvictLowest())
	admit := func(tx *types.Transaction) error {
		_, errA := a.pool.Admit(tx)
		_, errB := b.pool.Admit(tx)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("admission of %x: %v against %v", tx.Hash(), errA, errB)
		}
		return errA
	}
	resident := func() *types.Transaction {
		snap, _ := a.pool.Snapshot()
		if len(snap) == 0 {
			return nil
		}
		return snap[m.rng.Intn(len(snap))]
	}
	reorgs, clears, bumped := 0, 0, 0
	for step := 0; step < steps; step++ {
		s, settled := m.rng.Intn(len(m.next)), false
		switch op := m.rng.Intn(100); {
		case op < 40: // fresh, now and then leaving a gap behind it
			if m.rng.Intn(20) == 0 {
				m.next[s]++
			}
			_ = admit(m.sign(s, m.next[s], []uint64{5, 10, 20, 40}[m.rng.Intn(4)]))
			m.next[s]++
		case op < 45: // duplicate
			if tx := resident(); tx != nil && admit(tx) == nil {
				t.Fatalf("step %d: a resident transaction was admitted twice", step)
			}
		case op < 53: // below the account nonce on arrival
			if floor := m.floor[sender(s)]; floor > 0 && admit(m.sign(s, uint64(m.rng.Intn(int(floor))), 10)) == nil {
				m.late++
			}
		case op < 61: // a mined transaction gossiped again: stale, unless a reorg gave its nonce back
			if len(m.mined) > 0 {
				if tx := m.mined[m.rng.Intn(len(m.mined))]; admit(tx) == nil && tx.Nonce < m.floor[tx.From] {
					m.late++
				}
			}
		case op < 68: // price bump, or a replacement that does not pay for it
			if tx := resident(); tx != nil {
				price := tx.GasPrice + uint64(m.rng.Intn(9)) - 3
				if err := admit(m.sign(int(tx.From[19])-1, tx.Nonce, price)); (err == nil) != (price > tx.GasPrice) {
					t.Fatalf("step %d: replacing price %d with %d: %v", step, tx.GasPrice, price, err)
				} else if err == nil {
					bumped++
				}
			}
		case op < 94: // a block
			settled = true
			block := m.block(a.pool)
			a.pool.Settle(block, m.nonceOf)
			b.sweep([][]*types.Transaction{block}, m.nonceOf)
		case op < 99:
			if len(m.chain) == 0 {
				continue
			}
			reorgs, settled = reorgs+1, true
			branch := m.reorg(a.pool)
			for _, block := range branch { // as node.settlePool: block by block, against the new head
				a.pool.Settle(block, m.nonceOf)
			}
			b.sweep(branch, m.nonceOf)
		default:
			clears++
			a.pool.Clear()
			b.pool.Clear()
		}

		snapA, _ := a.pool.Snapshot()
		snapB, _ := b.pool.Snapshot()
		if !slices.EqualFunc(snapA, snapB, sameTx) || a.pool.Len() != b.pool.Len() || a.pool.Len() != len(snapA) {
			t.Fatalf("step %d: the pools hold %d and %d transactions (Len %d, %d), or not in the same order", step, len(snapA), len(snapB), a.pool.Len(), b.pool.Len())
		}
		if settled && slices.ContainsFunc(snapA, func(tx *types.Transaction) bool { return tx.Nonce < m.floor[tx.From] }) {
			t.Fatalf("step %d: a settled pool holds a stale transaction", step)
		}
		bySenderA, bySenderB := a.pool.BySender(), b.pool.BySender()
		if len(bySenderA) != len(bySenderB) {
			t.Fatalf("step %d: %d and %d senders indexed", step, len(bySenderA), len(bySenderB))
		}
		for from, queue := range bySenderA {
			if !slices.EqualFunc(queue, bySenderB[from], sameTx) {
				t.Fatalf("step %d: sender %x queues differ", step, from)
			}
		}
		slices.Sort(a.feed)
		slices.Sort(b.feed)
		if !slices.Equal(a.feed, b.feed) {
			t.Fatalf("step %d: watchers were told different things:\n%v\n%v", step, a.feed, b.feed)
		}
		a.feed, b.feed = a.feed[:0], b.feed[:0]
		viewA, okA := a.tracker.View()
		viewB, okB := b.tracker.View()
		if !okA || !okB || viewA != viewB {
			t.Fatalf("step %d: views differ: %+v against %+v", step, viewA, viewB)
		}
		if m.rng.Intn(25) == 0 {
			committed := types.AMV{Mark: m.marks[m.rng.Intn(len(m.marks))]}
			a.tracker.SetCommitted(committed)
			b.tracker.SetCommitted(committed)
		}
	}
	t.Logf("%d steps: %d blocks, %d reorgs, %d clears, %d evictions, %d price bumps; stale by a consumed slot %d, stale on arrival %d",
		steps, len(m.chain), reorgs, clears, a.pool.Evicted(), bumped, m.competitors, m.late)
	if a.pool.Evicted() != b.pool.Evicted() {
		t.Fatalf("evictions: %d against %d", a.pool.Evicted(), b.pool.Evicted())
	}
	if min(reorgs, clears, int(a.pool.Evicted()), bumped, m.competitors, m.late) < steps/300 {
		t.Fatal("the traffic no longer exercises Settle")
	}
}

// TestSettleFeedIsDeterministic: the full sweep ranged over two Go maps,
// so watchers saw a block's stale transactions leave in an order that
// changed from run to run. Two pools fed one script must tell their
// watchers the same things in the same order, and that order is the
// documented one: the included transactions in block order, then the
// slot competitors in block order, then the late arrivals in admission
// order.
func TestSettleFeedIsDeterministic(t *testing.T) {
	run := func() []string {
		m := &settleModel{rng: rand.New(rand.NewSource(3)), floor: map[types.Address]uint64{}, marks: []types.Word{{}}}
		w := newWatched()
		admit := func(tx *types.Transaction) {
			if _, err := w.pool.Admit(tx); err != nil {
				t.Fatal(err)
			}
		}
		var late []*types.Transaction // admitted stale since the last settle
		for step := 0; step < 200; step++ {
			if step%20 != 19 { // every sender queues two or three deep
				s := step % len(m.next)
				admit(m.sign(s, m.next[s], 10))
				m.next[s]++
				continue
			}
			// A block: whatever the first sender queued, in nonce order, then
			// two slots of every other sender filled from another miner's
			// pool, so whatever this pool queued there is stale.
			resident := w.pool.BySender()
			var block []*types.Transaction
			var want []string
			for _, tx := range resident[sender(0)] {
				block = append(block, tx)
				want = append(want, fmt.Sprintf("-%x", tx.Hash()))
				m.floor[sender(0)]++
			}
			for s := 1; s < len(m.next); s++ {
				for k := 0; k < 2; k++ {
					tx := m.sign(s, m.floor[sender(s)], 10)
					block = append(block, tx)
					for _, r := range resident[sender(s)] {
						if r.Nonce == tx.Nonce {
							want = append(want, fmt.Sprintf("-%x", r.Hash()))
						}
					}
					m.floor[sender(s)]++
					m.next[s] = max(m.next[s], m.floor[sender(s)])
				}
			}
			for _, tx := range late {
				want = append(want, fmt.Sprintf("-%x", tx.Hash()))
			}
			before := len(w.feed)
			w.pool.Settle(block, m.nonceOf)
			if got := w.feed[before:]; !slices.Equal(got, want) || len(got) < 8 {
				t.Fatalf("step %d: the settle told watchers\n%v\nwant\n%v", step, got, want)
			}
			// Gossip delivers two of the block's transactions again, late.
			late = []*types.Transaction{block[len(block)-1], block[len(block)-6]}
			admit(late[0])
			admit(late[1])
		}
		return w.feed
	}
	if first, second := run(), run(); !slices.Equal(first, second) {
		t.Fatal("one script, two change feeds")
	}
}
