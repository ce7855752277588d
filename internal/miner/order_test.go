package miner

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/hms"
	"sereth/internal/statedb"
	"sereth/internal/txpool"
	"sereth/internal/types"
)

// referenceOrder is Semantic.Order as it stood before the tracker
// supplied the prefix: the whole DAG re-derived from pending, every
// membership question asked of a tx.Hash()-keyed map. It is the oracle
// the live and the from-snapshot paths must both reproduce pointer for
// pointer, RNG draw for RNG draw. Every stage under it is eager, slice in
// and slice out, as the miner ran them before orderings were pulled.
func referenceOrder(tr *hms.Tracker, fallback *Baseline, pending []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
	series := tr.SeriesOf(pending)
	buys := make(map[types.Word][]*types.Transaction)
	for _, tx := range pending {
		if sel, ok := tx.Selector(); tx.To != contractAddr || !ok || sel != asm.SelBuy {
			continue
		}
		if fpv, err := tx.FPV(); err == nil {
			buys[fpv.PrevMark] = append(buys[fpv.PrevMark], tx)
		}
	}
	scheduled := make(map[types.Hash]bool)
	var out []*types.Transaction
	add := func(txs ...*types.Transaction) {
		for _, tx := range txs {
			if h := tx.Hash(); !scheduled[h] {
				scheduled[h] = true
				out = append(out, tx)
			}
		}
	}
	add(buys[tr.Committed().Mark]...)
	for _, node := range series {
		add(node.Tx)
		add(buys[node.Mark]...)
	}
	var rest []*types.Transaction
	for _, tx := range pending {
		if !scheduled[tx.Hash()] {
			rest = append(rest, tx)
		}
	}
	add(referenceBaseline(fallback, rest, nextNonce)...)
	return referenceRepair(out, nextNonce)
}

// referenceBaseline is Baseline.Order before it was a cursor, verbatim:
// it draws from b's generator and sorts at once.
func referenceBaseline(b *Baseline, pending []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
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
	return referenceRepair(out, nextNonce)
}

// referenceTrim is Build's gas trim before it pulled its ordering,
// verbatim: the whole ordering in hand, it stops at the first miss when
// nothing behind the miss fits either.
func referenceTrim(ordered []*types.Transaction, limit uint64) []*types.Transaction {
	var budget uint64
	var gapped map[types.Address]struct{} // senders with a tx skipped for gas
	body := make([]*types.Transaction, 0, len(ordered))
	for i, tx := range ordered {
		if _, gap := gapped[tx.From]; gap {
			continue
		}
		if budget+tx.GasLimit > limit {
			if gapped == nil {
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
	return body
}

// collectRest pulls a semantic cursor dry and checks what the draw count
// rests on: the prefix is distinct transactions of pending, so the rest
// the fallback ranks has len(pending) - len(prefix) of them.
func collectRest(t *testing.T, cur Cursor, pending []*types.Transaction) []*types.Transaction {
	t.Helper()
	body := cur.(*repair)
	prefix := len(body.first)
	out := collect(cur, len(pending))
	if rest, want := len(body.in.(*repair).in.(*sorted).ranked), len(pending)-prefix; rest != want {
		t.Fatalf("the rest has %d transactions, the fallback drew for %d (pending %d, prefix %d)", rest, want, len(pending), prefix)
	}
	return out
}

// slice is a cursor over a fixed ordering.
type slice []*types.Transaction

func (s *slice) Next() *types.Transaction {
	if len(*s) == 0 {
		return nil
	}
	tx := (*s)[0]
	*s = (*s)[1:]
	return tx
}

// repairNonceOrder is the nonce repair collected over a given ordering.
func repairNonceOrder(desired []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
	in := slice(desired)
	return collect(newRepair(nil, &in, nextNonce), len(desired))
}

// referenceRepair is repairNonceOrder before it kept one value-typed
// state per sender, verbatim.
func referenceRepair(desired []*types.Transaction, nextNonce func(types.Address) uint64) []*types.Transaction {
	expected := make(map[types.Address]uint64)
	nonceOf := func(a types.Address) uint64 {
		if n, ok := expected[a]; ok {
			return n
		}
		n := nextNonce(a)
		expected[a] = n
		return n
	}
	deferred := make(map[types.Address][]*types.Transaction)
	out := make([]*types.Transaction, 0, len(desired))

	place := func(tx *types.Transaction) bool {
		want := nonceOf(tx.From)
		switch {
		case tx.Nonce < want:
			return true // stale: drop silently
		case tx.Nonce > want:
			deferred[tx.From] = append(deferred[tx.From], tx)
			return false
		default:
			out = append(out, tx)
			expected[tx.From] = want + 1
			return true
		}
	}
	for _, tx := range desired {
		if !place(tx) {
			continue
		}
		for {
			q := deferred[tx.From]
			if len(q) == 0 {
				break
			}
			sort.Slice(q, func(i, j int) bool { return q[i].Nonce < q[j].Nonce })
			if q[0].Nonce != expected[tx.From] {
				break
			}
			out = append(out, q[0])
			expected[tx.From]++
			deferred[tx.From] = q[1:]
		}
	}
	return out
}

// marketChurn drives a pool with the traffic Order has to get right:
// chained sets with duplicate marks, buys on live and dead intervals,
// unmanaged transactions at mixed prices, nonce gaps that heal, stale
// nonces, evictions, re-admissions and account nonces that move as
// blocks land.
type marketChurn struct {
	rng      *rand.Rand
	pool     *txpool.Pool
	live     []*types.Transaction
	evicted  []*types.Transaction // removed below their account nonce: a gap until redelivered
	mined    []*types.Transaction // removed at their account nonce: stale if redelivered
	marks    []types.Word
	next     [6]uint64   // next nonce each sender signs with
	holes    [6][]uint64 // nonces skipped so far: gaps until a late tx fills them
	accounts map[types.Address]uint64
}

func newMarketChurn(seed int64, pool *txpool.Pool) *marketChurn {
	return &marketChurn{
		rng: rand.New(rand.NewSource(seed)), pool: pool,
		marks: []types.Word{types.ZeroWord}, accounts: map[types.Address]uint64{},
	}
}

func (c *marketChurn) nonceOf(a types.Address) uint64 { return c.accounts[a] }

// interval picks the mark a new set or buy hangs off: mostly the
// committed mark or a recent one, so series form and carry buys, and
// sometimes any mark ever seen, live or dead.
func (c *marketChurn) interval(committed types.Word) types.Word {
	switch r := c.rng.Intn(10); {
	case r < 3:
		return committed
	case r < 8:
		return c.marks[len(c.marks)-1-c.rng.Intn(min(6, len(c.marks)))]
	}
	return c.marks[c.rng.Intn(len(c.marks))]
}

// submit signs data as sender s's next transaction — now and then out
// of order or on a nonce already used — and offers it to the pool.
func (c *marketChurn) submit(s int, to types.Address, price uint64, data []byte) {
	tx := &types.Transaction{Nonce: c.next[s], From: addr(byte(s + 1)), To: to, GasPrice: price, GasLimit: churnGas(s, c.next[s]), Data: data}
	switch r := c.rng.Intn(16); {
	case r == 0 && messy(tx.From): // skip a nonce: everything behind the gap must wait
		c.holes[s] = append(c.holes[s], c.next[s])
		tx.Nonce++
		c.next[s] += 2
	case r < 6 && len(c.holes[s]) > 0: // the late transaction arrives
		tx.Nonce = c.holes[s][0]
		c.holes[s] = c.holes[s][1:]
	case r == 6: // an old nonce again: stale once the account moved past it
		tx.Nonce = uint64(c.rng.Intn(int(c.next[s]) + 1))
	default:
		c.next[s]++
	}
	c.admit(tx)
}

// churnGas spreads declared gas limits over 100..500, and now and then
// 5000 — more than most of the block limits TestBuildMatchesReference
// draws — without touching the churn's random stream.
func churnGas(s int, nonce uint64) uint64 {
	if k := (uint64(s)*7 + nonce*13) % 23; k < 22 {
		return 100 * (1 + k%5)
	}
	return 5000
}

func (c *marketChurn) admit(tx *types.Transaction) {
	if err := c.pool.Add(tx); err == nil {
		c.live = append(c.live, tx)
	}
}

// messy senders skip nonces and get evicted; the others only ever queue
// in order, so bodies stay long enough to compare.
func messy(a types.Address) bool { return a[19] >= 5 }

func (c *marketChurn) remove(i int, into *[]*types.Transaction) {
	c.pool.Remove([]types.Hash{c.live[i].Hash()})
	*into = append(*into, c.live[i])
	c.live = slices.Delete(c.live, i, i+1)
}

func (c *marketChurn) step(committed types.Word) {
	s := c.rng.Intn(len(c.next))
	op := c.rng.Intn(100)
	if len(c.live) > 150 {
		op = 76 + op%24 // hold the pool near 150
	}
	switch {
	case op < 30: // chained set; five values make duplicate marks common
		prev := c.interval(committed)
		value := types.WordFromUint64(uint64(c.rng.Intn(5) + 1))
		flag := types.FlagChain
		if prev == committed && c.rng.Intn(2) == 0 {
			flag = types.FlagHead
		}
		c.submit(s, contractAddr, 10, types.EncodeCall(asm.SelSet, flag, prev, value))
		c.marks = append(c.marks, types.NextMark(prev, value))
	case op < 50:
		c.submit(s, contractAddr, 10, types.EncodeCall(asm.SelBuy, types.FlagChain, c.interval(committed), types.WordFromUint64(7)))
	case op < 65: // unmanaged traffic at mixed prices
		c.submit(s, addr(0xdd), []uint64{1, 5, 10, 20}[c.rng.Intn(4)], []byte{byte(op)})
	case op < 76: // gossip redelivers a removed transaction
		from := &c.evicted
		if len(c.evicted) == 0 || c.rng.Intn(5) == 0 {
			from = &c.mined
		}
		if len(*from) > 0 {
			i := c.rng.Intn(len(*from))
			c.admit((*from)[i])
			*from = slices.Delete(*from, i, i+1)
		}
	case op < 80: // eviction: whatever the sender queued behind it is gapped
		if i := c.rng.Intn(len(c.live) + 1); i < len(c.live) && messy(c.live[i].From) {
			c.remove(i, &c.evicted)
		}
	default: // a block lands: the sender's next-in-line leaves, the account moves, stale txs go
		from := addr(byte(s + 1))
		var block []*types.Transaction
		for i, tx := range c.live {
			if tx.From == from && tx.Nonce == c.accounts[from] {
				block = []*types.Transaction{tx}
				c.mined = append(c.mined, tx)
				c.live = slices.Delete(c.live, i, i+1)
				c.accounts[from]++
				break
			}
		}
		c.pool.Settle(block, c.nonceOf)
		c.live = slices.DeleteFunc(c.live, func(tx *types.Transaction) bool { return tx.Nonce < c.accounts[tx.From] })
	}
}

// TestOrderDifferential churns an attached pool and, at every step,
// orders its snapshot three ways at the same seed and reorder window:
// off the live DAG, from the snapshot on a standalone tracker, and with
// the pre-change implementation. The three bodies must be the same
// pointers in the same order — which also holds their RNG streams in
// lockstep — bare and behind a Censor, with ExtendHeads on and off, and
// once more for a FIFO miner (window 0), which draws nothing and ranks
// only when pulled. Every semantic ordering also checks that the rest is
// as long as the fallback drew for.
func TestOrderDifferential(t *testing.T) {
	const window, seed = 8, 77
	steps := 6000
	if testing.Short() {
		steps = 1000 // order-smoke repeats it ten times under the race detector
	}
	for _, ext := range []bool{false, true} {
		t.Run(fmt.Sprintf("extendheads=%v", ext), func(t *testing.T) {
			cfg := tracker().Config()
			cfg.ExtendHeads = ext
			pool := txpool.New()
			inc := hms.NewTracker(cfg)
			inc.Attach(pool)
			ref := hms.NewTracker(cfg)

			live := NewSemanticWindow(inc, seed, window)
			scratch := NewSemanticWindow(ref, seed, window)
			oracle := NewBaselineWindow(seed, window)
			targets := []types.Address{addr(2), addr(5)}
			liveCensor := NewCensor(NewSemanticWindow(inc, seed+1, window), targets)
			oracleCensor := NewBaselineWindow(seed+1, window)
			liveFIFO, oracleFIFO := NewSemanticWindow(inc, seed, 0), NewBaselineWindow(seed, 0)

			ch := newMarketChurn(seed, pool)
			var committed types.AMV
			interleaved, ordered := 0, 0 // steps with a real prefix; txs placed
			for step := 0; step < steps; step++ {
				ch.step(committed.Mark)
				if ch.rng.Intn(30) == 0 {
					committed = types.AMV{Mark: ch.interval(committed.Mark)}
					inc.SetCommitted(committed)
					ref.SetCommitted(committed)
				}
				snap, _ := pool.Snapshot()
				prefix, ok := inc.SemanticPrefix(snap)
				if !ok {
					t.Fatalf("step %d: the attached pool's own snapshot did not take the live path", step)
				}
				if len(prefix) > 2 {
					interleaved++
				}
				want := referenceOrder(ref, oracle, snap, ch.nonceOf)
				ordered += len(want)
				if got := collectRest(t, live.Pull(snap, ch.nonceOf), snap); !slices.Equal(got, want) {
					t.Fatalf("step %d: live order differs from the reference (%d vs %d txs, pool %d)", step, len(got), len(want), len(snap))
				}
				if got := collectRest(t, scratch.Pull(snap, ch.nonceOf), snap); !slices.Equal(got, want) {
					t.Fatalf("step %d: from-snapshot order differs from the reference", step)
				}
				if got := liveFIFO.Order(snap, ch.nonceOf); !slices.Equal(got, referenceOrder(ref, oracleFIFO, snap, ch.nonceOf)) {
					t.Fatalf("step %d: FIFO order differs from the reference", step)
				}
				kept := slices.DeleteFunc(slices.Clone(snap), func(tx *types.Transaction) bool {
					return slices.Contains(targets, tx.From)
				})
				want = referenceOrder(ref, oracleCensor, kept, ch.nonceOf)
				if got := collectRest(t, liveCensor.Pull(snap, ch.nonceOf), kept); !slices.Equal(got, want) {
					t.Fatalf("step %d: censored order differs from the reference", step)
				}
			}
			t.Logf("pool %d, prefix longer than 2 on %d of %d steps, mean body %d", pool.Len(), interleaved, steps, ordered/steps)
			if interleaved < steps/6 || ordered/steps < 40 {
				t.Fatal("the churn no longer exercises Order")
			}
		})
	}
}

// TestRepairNonceOrderMatchesReference feeds both nonce passes slices no
// pool would produce: repeated (sender, nonce) pairs, long deferred
// queues, stale transactions between the deferrals.
func TestRepairNonceOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		desired := make([]*types.Transaction, rng.Intn(60))
		for i := range desired {
			desired[i] = rawTx(byte(rng.Intn(3)+1), uint64(rng.Intn(20)), 10)
		}
		floor := func(a types.Address) uint64 { return uint64(a[19]) }
		if got, want := repairNonceOrder(desired, floor), referenceRepair(slices.Clone(desired), floor); !slices.Equal(got, want) {
			t.Fatalf("trial %d: nonce repair differs from the reference", trial)
		}
	}
}

// TestMinerSkipsSenderAfterGasMiss is the wedge regression: a sender's
// nonce 0 does not fit the block but their nonce 1 does. Including the
// latter alone leaves a nonce gap, Process rejects the body, and every
// BuildBlock fails until the pool changes.
func TestMinerSkipsSenderAfterGasMiss(t *testing.T) {
	c := chain.New(chain.Config{GasLimit: 500_000}, statedb.New())
	pool := txpool.New()
	m := NewMiner(c, pool, NewBaselineWindow(1, 0), addr(0xee))
	big, small, other := rawTx(1, 0, 10), rawTx(1, 1, 10), rawTx(2, 0, 10)
	big.GasLimit, small.GasLimit, other.GasLimit = 900_000, 100_000, 100_000
	for _, tx := range []*types.Transaction{big, small, other} {
		if err := pool.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	block, err := m.BuildBlock(15)
	if err != nil {
		t.Fatalf("an over-limit transaction wedged the miner: %v", err)
	}
	if len(block.Txs) != 1 || block.Txs[0].Hash() != other.Hash() {
		t.Fatalf("body = %d txs, want only the other sender's", len(block.Txs))
	}
	if _, err := c.InsertBlock(block); err != nil {
		t.Fatal(err)
	}
}

// TestBuildBlockRacesPoolChurn: BuildBlock orders whatever snapshot it
// got while batches are admitted and removed around it. A snapshot that
// raced an admission must fall back to the from-snapshot path, never
// mix the two, so every body is one Process accepts.
func TestBuildBlockRacesPoolChurn(t *testing.T) {
	st := statedb.New()
	st.SetCode(contractAddr, asm.SerethContract())
	c := chain.New(chain.Config{GasLimit: 1 << 40}, st)
	pool := txpool.New()
	tr := tracker()
	tr.Attach(pool)
	m := NewMiner(c, pool, NewSemanticWindow(tr, 3, 8), addr(0xee))

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			prev := types.ZeroWord
			var nonce uint64
			var resident []types.Hash
			for i := 0; i < 60; i++ {
				batch := make([]*types.Transaction, 5)
				for j := range batch {
					tx := &types.Transaction{Nonce: nonce, From: addr(byte(w + 1)), To: contractAddr, GasPrice: 10, GasLimit: 300_000}
					nonce++
					value := types.WordFromUint64(uint64(rng.Intn(9) + 1))
					if j%2 == 0 {
						tx.Data = types.EncodeCall(asm.SelSet, types.FlagHead, prev, value)
						prev = types.NextMark(prev, value)
					} else {
						tx.Data = types.EncodeCall(asm.SelBuy, types.FlagChain, prev, value)
					}
					batch[j] = tx
				}
				admitted, _ := pool.AdmitBatch(batch)
				for _, tx := range admitted {
					if tx != nil {
						resident = append(resident, tx.Hash())
					}
				}
				if len(resident) > 20 {
					k := rng.Intn(len(resident))
					pool.Remove(resident[k : k+1])
					resident = slices.Delete(resident, k, k+1)
				}
			}
		}(w)
	}
	built := make(chan error, 1)
	go func() {
		for i := 0; i < 40; i++ {
			if _, err := m.BuildBlock(uint64(i + 1)); err != nil {
				built <- err
				return
			}
		}
		built <- nil
	}()
	if err := <-built; err != nil {
		t.Errorf("BuildBlock under churn: %v", err)
	}
	wg.Wait()
}

// TestBuildMatchesReference churns the same market and, at every step,
// builds a block three ways — Baseline, Semantic, Semantic behind a
// Censor — on a chain whose gas limit is drawn to fit nothing, exactly
// one transaction, a part of the pool or all of it, over per-transaction
// limits that now and then exceed the block's (the over-limit wedge) and
// senders gapped by a miss. Each body must be the eager reference's: the
// whole ordering, then the old trim. Each strategy's generator must also
// stand where its eager twin's stands after every call, however early
// the block filled: one draw from each after every build says so.
func TestBuildMatchesReference(t *testing.T) {
	const window, seed = 8, 91
	steps := 2400
	if testing.Short() {
		steps = 300 // order-smoke repeats it ten times under the race detector
	}
	pool := txpool.New()
	inc, ref := tracker(), tracker()
	inc.Attach(pool)
	targets := []types.Address{addr(2), addr(5)}

	baseline := NewBaselineWindow(seed, window)
	semantic, censored := NewSemanticWindow(inc, seed+1, window), NewSemanticWindow(inc, seed+2, window)
	cases := []struct {
		name     string
		strategy Strategy
		built    *Baseline // the generator Build draws from
		eager    *Baseline // its twin, driven through the reference
		semantic bool
		censor   bool
	}{
		{"baseline", baseline, baseline, NewBaselineWindow(seed, window), false, false},
		{"semantic", semantic, semantic.fallback, NewBaselineWindow(seed+1, window), true, false},
		{"censor", NewCensor(censored, targets), censored.fallback, NewBaselineWindow(seed+2, window), true, true},
	}

	ch := newMarketChurn(seed, pool)
	limits := rand.New(rand.NewSource(seed))
	var committed types.AMV
	early, empty, single, full, wedged := 0, 0, 0, 0, 0
	for step := 0; step < steps; step++ {
		ch.step(committed.Mark)
		if ch.rng.Intn(30) == 0 {
			committed = types.AMV{Mark: ch.interval(committed.Mark)}
			inc.SetCommitted(committed)
			ref.SetCommitted(committed)
		}
		snap, _ := pool.Snapshot()
		var total uint64
		for _, tx := range snap {
			total += tx.GasLimit
		}
		var limit uint64
		switch r := limits.Intn(10); {
		case r == 0:
			limit = uint64(limits.Intn(100)) // fits nothing
		case r == 1 && len(snap) > 0:
			limit = snap[limits.Intn(len(snap))].GasLimit // fits one of some, none of others
		case r == 2:
			limit = total // fits every pending transaction
		default:
			limit = uint64(limits.Intn(int(total/2) + 1))
		}
		st := statedb.New()
		for a, n := range ch.accounts {
			st.SetNonce(a, n)
		}
		c := chain.New(chain.Config{GasLimit: limit}, st)

		for _, tc := range cases {
			pending := snap
			if tc.censor {
				pending = slices.DeleteFunc(slices.Clone(snap), func(tx *types.Transaction) bool {
					return slices.Contains(targets, tx.From)
				})
			}
			var ordered []*types.Transaction
			if tc.semantic {
				ordered = referenceOrder(ref, tc.eager, pending, ch.nonceOf)
			} else {
				ordered = referenceBaseline(tc.eager, pending, ch.nonceOf)
			}
			want := referenceTrim(ordered, limit)
			block, err := NewMiner(c, pool, tc.strategy, addr(0xee)).BuildBlock(uint64(step + 1))
			if err != nil {
				t.Fatalf("step %d, %s, limit %d: %v", step, tc.name, limit, err)
			}
			if !slices.Equal(block.Txs, want) {
				t.Fatalf("step %d, %s, limit %d: body of %d txs, the reference trims to %d (ordering %d, pool %d)",
					step, tc.name, limit, len(block.Txs), len(want), len(ordered), len(snap))
			}
			if got, want := tc.built.rng.Float64(), tc.eager.rng.Float64(); got != want {
				t.Fatalf("step %d, %s: the generator left the eager one's position (drew %v, want %v)", step, tc.name, got, want)
			}
			if tc.name != "semantic" {
				continue
			}
			switch {
			case len(want) == 0 && len(ordered) > 0:
				empty++
			case len(want) == 1:
				single++
			case len(want) == len(ordered):
				full++
			}
			if len(want) < len(ordered) {
				early++
			}
			if slices.ContainsFunc(ordered, func(tx *types.Transaction) bool { return tx.GasLimit > limit }) && len(want) > 0 {
				wedged++
			}
		}
	}
	t.Logf("%d steps: %d bodies shorter than their ordering, %d empty, %d of one tx, %d whole, %d around an over-limit tx", steps, early, empty, single, full, wedged)
	if early < steps/2 || empty < steps/50 || single < steps/100 || full < steps/50 || wedged < steps/20 {
		t.Fatal("the limits no longer exercise the trim")
	}
}

// deepQueue is a 10 000-transaction pool of 100 senders' queues, 100
// deep each, under a chain whose blocks fit 50 of them.
func deepQueue(t *testing.T, strategy Strategy) (*Miner, *txpool.Pool) {
	t.Helper()
	pool := txpool.New()
	for nonce := uint64(0); nonce < 100; nonce++ {
		for sender := byte(1); sender <= 100; sender++ {
			if err := pool.Add(rawTx(sender, nonce, 10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := chain.New(chain.Config{GasLimit: 50 * 50_000}, statedb.New())
	return NewMiner(c, pool, strategy, addr(0xee)), pool
}

// TestBlockDoesNotPinPoolSizedBody: a block keeps its body's backing
// array for as long as the chain keeps the block. Sized by the ordering,
// a 50-transaction block over a 10 000-transaction pool held 80 KB.
func TestBlockDoesNotPinPoolSizedBody(t *testing.T) {
	m, _ := deepQueue(t, NewBaselineWindow(1, 0))
	block, err := m.BuildBlock(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(block.Txs) != 50 || cap(block.Txs) > 2*len(block.Txs) {
		t.Fatalf("a block of %d txs holds an array of %d", len(block.Txs), cap(block.Txs))
	}
}

// TestRepairLongQueueIsNotQuadratic: one sender's 8000 transactions in
// descending nonce order all wait for the last. The repair used to sort
// the sender's whole queue again for every transaction it drained — 4x
// the time per doubling, seconds at the pool's capacity, on every miner,
// at any signer's wish. Each of those sorts allocated (sort.Slice's
// closure and swapper), so allocations count them without a clock: they
// must not grow with the queue.
func TestRepairLongQueueIsNotQuadratic(t *testing.T) {
	const n = 8000
	desired := make([]*types.Transaction, n)
	for i := range desired {
		desired[i] = rawTx(1, uint64(n-1-i), 10)
	}
	var out []*types.Transaction
	allocs := testing.AllocsPerRun(1, func() { out = repairNonceOrder(desired, zeroNonces) })
	if len(out) != n || !slices.IsSortedFunc(out, func(a, b *types.Transaction) int { return cmp.Compare(a.Nonce, b.Nonce) }) {
		t.Fatalf("repaired %d of %d", len(out), n)
	}
	if allocs > 64 {
		t.Fatalf("%v allocations to repair one sender's %d-deep queue: one sort per drained transaction", allocs, n)
	}
}

// TestRestCountMismatchIsNamed: the fallback's jitters are drawn for
// len(pending) - len(prefix) transactions before the rest is looked for. A
// prefix that repeats a transaction, or holds one that is not pending,
// must fail by naming that, not with an index out of range in the sort.
func TestRestCountMismatchIsNamed(t *testing.T) {
	pending := []*types.Transaction{rawTx(1, 0, 10), rawTx(2, 0, 10), rawTx(3, 0, 10)}
	for name, prefix := range map[string][]*types.Transaction{
		"repeated":    {pending[0], pending[0]},
		"not pending": {rawTx(4, 0, 10)},
	} {
		for _, window := range []int{0, 8} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "distinct transactions of pending") {
						t.Errorf("%s prefix, window %d: recovered %q", name, window, msg)
					}
				}()
				NewBaselineWindow(1, window).draw(pending, prefix).Next()
			}()
		}
	}
}
