package miner

import (
	"fmt"
	"runtime/debug"
	"slices"
	"testing"

	"sereth/internal/chain"
	"sereth/internal/hms"
	"sereth/internal/statedb"
	"sereth/internal/txpool"
	"sereth/internal/types"
)

// scratch is what a strategy keeps between builds: its rank cursors, its
// nonce repairs and a semantic strategy's prefix.
type scratch struct {
	sorts    []*sorted
	repairs  []*repair
	prefixes [][]*types.Transaction
}

func scratchOf(s Strategy) (sc scratch) {
	switch s := s.(type) {
	case *Baseline:
		return scratch{sorts: []*sorted{&s.sorted}, repairs: []*repair{&s.repair}}
	case *Semantic:
		sc = scratchOf(s.fallback)
		sc.repairs = append(sc.repairs, &s.body)
		sc.prefixes = append(sc.prefixes, s.prefix)
		return sc
	case *Censor:
		return scratchOf(s.inner)
	}
	panic(fmt.Sprintf("scratchOf: strategy %T", s))
}

// held counts what the scratch of a strategy still references, spare
// capacity included: transactions, the slices it ordered and the nonce
// source (a bound method of the head state).
func held(s Strategy) int {
	sc, n := scratchOf(s), 0
	some := func(txs []*types.Transaction) {
		for _, tx := range txs[:cap(txs)] {
			if tx != nil {
				n++
			}
		}
	}
	for _, so := range sc.sorts {
		n += len(so.txs) + len(so.except) + len(so.scheduled) + len(so.excluded)
		for _, r := range so.ranked[:cap(so.ranked)] {
			if r.tx != nil {
				n++
			}
		}
	}
	for _, r := range sc.repairs {
		n += len(r.first)
		if r.in != nil {
			n++
		}
		if r.nextNonce != nil {
			n++
		}
		for _, st := range r.senders[:cap(r.senders)] {
			some(st.deferred)
		}
	}
	for _, prefix := range sc.prefixes {
		some(prefix)
	}
	return n
}

// churnedMarket is a market pool after enough churn that its orderings
// have a semantic prefix, gapped senders whose transactions the nonce
// repair defers, and more gas than half a block holds.
func churnedMarket(t *testing.T) (*marketChurn, *hms.Tracker, []*types.Transaction) {
	t.Helper()
	pool := txpool.New()
	tr := tracker()
	tr.Attach(pool)
	ch := newMarketChurn(45, pool)
	for range 400 {
		ch.step(types.ZeroWord)
	}
	snap, _ := pool.Snapshot()
	if len(snap) < 100 {
		t.Fatalf("the churn left %d pending transactions", len(snap))
	}
	return ch, tr, snap
}

// strategies are the three strategies and a FIFO baseline over one
// tracker.
func strategies(tr *hms.Tracker) map[string]Strategy {
	return map[string]Strategy{
		"baseline": NewBaselineWindow(1, 8),
		"fifo":     NewBaselineWindow(1, 0),
		"semantic": NewSemanticWindow(tr, 2, 8),
		"censor":   NewCensor(NewSemanticWindow(tr, 3, 8), []types.Address{addr(2), addr(5)}),
	}
}

// TestBuildLeavesNoTransactionInScratch: a strategy keeps its cursor's
// arrays for the next Pull, so Build must empty them before it returns.
// Otherwise an idle miner pins every transaction of its last ordering,
// the ones the pool has since evicted or mined included, and the head
// state its nonces came from. The block here fills at half the pending
// gas, so much of the ordering is ranked but never pulled, and the
// repair holds deferred transactions of gapped senders when it stops.
func TestBuildLeavesNoTransactionInScratch(t *testing.T) {
	ch, tr, snap := churnedMarket(t)
	var total uint64
	for _, tx := range snap {
		total += tx.GasLimit
	}
	st := statedb.New()
	for a, n := range ch.accounts {
		st.SetNonce(a, n)
	}
	c := chain.New(chain.Config{GasLimit: total / 2}, st)
	for name, s := range strategies(tr) {
		cur := s.Pull(snap, ch.nonceOf)
		for range len(snap) / 2 {
			cur.Next()
		}
		if held(s) == 0 {
			t.Fatalf("%s: a cursor pulled half way holds nothing: held counts nothing", name)
		}
		block, err := NewMiner(c, ch.pool, s, addr(0xee)).BuildBlock(1)
		if err != nil {
			t.Fatal(err)
		}
		if len(block.Txs) == 0 || len(block.Txs) == len(snap) {
			t.Fatalf("%s: a block of %d of %d pending transactions does not stop half way", name, len(block.Txs), len(snap))
		}
		if n := held(s); n != 0 {
			t.Errorf("%s: after Build the strategy's scratch holds %d transactions or references", name, n)
		}
	}
}

// TestSecondOrderingAllocatesNothing: once a strategy has ordered a pool
// of a shape, ordering it again — the ranks, the pointer set, both nonce
// repairs with their sender states and deferred queues, the semantic
// prefix — allocates nothing. A semantic ordering reads its prefix off
// the live dag into its scratch, a censored one too: the censor leaves
// its targets out of the reading, not out of a copy of the snapshot,
// which would fill a dag of its own.
func TestSecondOrderingAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ch, tr, snap := churnedMarket(t)
	nonceOf := ch.nonceOf
	for name, s := range strategies(tr) {
		pulled := 0
		order := func() {
			cur := s.Pull(snap, nonceOf)
			for pulled = 0; cur.Next() != nil; pulled++ {
			}
			s.release()
		}
		order() // the first ordering sizes the scratch
		if got := testing.AllocsPerRun(20, order); got != 0 {
			t.Errorf("%s: ordering %d of %d pending transactions again allocated %v objects, want 0", name, pulled, len(snap), got)
		}
	}
}

// TestScratchStaysBoundedOverBuilds is the miner's half of the soak
// (internal/scenarios' TestSoakHoldsItsWindow): ten reorg horizons of
// builds, 5 120, over a market whose blocks land and whose pool churns,
// by the semantic strategy, a censor around one and a baseline. After
// every build the scratch holds no transaction, and what it keeps is
// sized by the largest pool it ordered, never by the number of builds:
// a repair's sender states by the most senders one snapshot held, each
// state's queue by the most transactions one sender had pending, the rank
// and prefix arrays by the largest snapshot — at most twice that, as append
// grows, and a quarter of it and eight more for the allocator's size
// classes.
func TestScratchStaysBoundedOverBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("the soak builds 5 120 blocks")
	}
	pool := txpool.New()
	tr := tracker()
	tr.Attach(pool)
	ch := newMarketChurn(61, pool)
	named := strategies(tr)
	delete(named, "fifo")
	bound := func(n int) int { return 9*n/4 + 8 }
	var pending, senders, perSender int // the most of each one snapshot held
	var committed types.AMV
	for step := range 10 * 512 {
		ch.step(committed.Mark)
		if ch.rng.Intn(30) == 0 {
			committed = types.AMV{Mark: ch.interval(committed.Mark)}
			tr.SetCommitted(committed)
		}
		snap, _ := pool.Snapshot()
		var gas uint64
		count := map[types.Address]int{}
		for _, tx := range snap {
			gas += tx.GasLimit
			count[tx.From]++
			perSender = max(perSender, count[tx.From])
		}
		pending, senders = max(pending, len(snap)), max(senders, len(count))
		st := statedb.New()
		for a, n := range ch.accounts {
			st.SetNonce(a, n)
		}
		c := chain.New(chain.Config{GasLimit: gas/2 + 1}, st)
		for name, s := range named {
			if _, err := NewMiner(c, pool, s, addr(0xee)).BuildBlock(uint64(step + 1)); err != nil {
				t.Fatal(err)
			}
			if n := held(s); n != 0 {
				t.Fatalf("step %d, %s: the scratch holds %d transactions or references after Build", step, name, n)
			}
			sc := scratchOf(s)
			slots := make([]int, 0, 2)
			for _, so := range sc.sorts {
				slots = append(slots, cap(so.ranked))
			}
			for _, prefix := range sc.prefixes {
				slots = append(slots, cap(prefix))
			}
			for _, n := range slots {
				if n > bound(pending) {
					t.Fatalf("step %d, %s: an array of %d rank or prefix slots, the largest snapshot %d", step, name, n, pending)
				}
			}
			for i, r := range sc.repairs {
				queue := 0
				for _, st := range r.senders[:cap(r.senders)] {
					queue = max(queue, cap(st.deferred))
				}
				if cap(r.senders) > bound(senders) || queue > bound(perSender) {
					t.Fatalf("step %d, %s, repair %d: %d sender states and a queue of %d slots; the largest snapshot held %d senders, one with %d transactions",
						step, name, i, cap(r.senders), queue, senders, perSender)
				}
			}
		}
	}
	t.Logf("the largest snapshot: %d transactions, %d senders, one with %d", pending, senders, perSender)
}

// TestCensorAroundCensorExcludesBoth: a censor wrapping a censor orders
// as one censor of both target sets, and each counts the exclusions of
// its own targets.
func TestCensorAroundCensorExcludesBoth(t *testing.T) {
	ch, tr, snap := churnedMarket(t)
	inner := NewCensor(NewSemanticWindow(tr, 3, 8), []types.Address{addr(2)})
	nested := NewCensor(inner, []types.Address{addr(5)})
	both := NewCensor(NewSemanticWindow(tr, 3, 8), []types.Address{addr(2), addr(5)})
	got, want := nested.Order(snap, ch.nonceOf), both.Order(snap, ch.nonceOf)
	if !slices.Equal(got, want) {
		t.Fatalf("nested censors order %d transactions, one censor of both targets %d, or another order", len(got), len(want))
	}
	count := map[types.Address]uint64{}
	for _, tx := range snap {
		count[tx.From]++
	}
	if inner.Excluded() != count[addr(2)] || nested.Excluded() != count[addr(5)] || both.Excluded() != count[addr(2)]+count[addr(5)] {
		t.Fatalf("excluded %d inner, %d outer, %d together; the targets hold %d and %d", inner.Excluded(), nested.Excluded(), both.Excluded(), count[addr(2)], count[addr(5)])
	}
}
