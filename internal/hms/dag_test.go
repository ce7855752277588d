package hms

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sereth/internal/txpool"
	"sereth/internal/types"
)

// churner drives a pool through randomized mutations while keeping
// enough bookkeeping to build plausible HMS traffic (chained sets,
// duplicates, buys, foreign noise) and to pick removal victims.
type churner struct {
	rng     *rand.Rand
	pool    *txpool.Pool
	live    []*types.Transaction
	removed []*types.Transaction // re-admission candidates (gossip redelivery)
	marks   []types.Word         // candidate prev marks: committed + live set marks
	nonce   uint64
}

func newChurner(seed int64, pool *txpool.Pool) *churner {
	return &churner{
		rng:   rand.New(rand.NewSource(seed)),
		pool:  pool,
		marks: []types.Word{types.ZeroWord},
	}
}

func (c *churner) addTx(tx *types.Transaction) {
	if err := c.pool.Add(tx); err != nil {
		return
	}
	c.live = append(c.live, tx)
}

// interval picks the mark a new set or buy hangs off: mostly the
// committed mark or a recent one, so series grow several sets deep and
// carry buys, and sometimes any mark ever seen, live or dead.
func (c *churner) interval(committed types.Word) types.Word {
	switch r := c.rng.Intn(10); {
	case r < 3:
		return committed
	case r < 8:
		return c.marks[len(c.marks)-1-c.rng.Intn(min(6, len(c.marks)))]
	}
	return c.marks[c.rng.Intn(len(c.marks))]
}

// step applies one random mutation. committed is the tracker's current
// committed mark, used to emit head candidates.
func (c *churner) step(committed types.Word) {
	c.nonce++
	sender := types.Address{19: byte(c.rng.Intn(5) + 1)}
	switch op := c.rng.Intn(100); {
	case op < 45: // chained set, sometimes a duplicate (prev,value) pair
		prev := c.interval(committed)
		value := types.WordFromUint64(uint64(c.rng.Intn(5) + 1))
		flag := types.FlagChain
		if prev == committed && c.rng.Intn(2) == 0 {
			flag = types.FlagHead
		}
		tx := &types.Transaction{
			Nonce: c.nonce, From: sender, To: contract,
			GasPrice: 10, GasLimit: 100,
			Data: types.EncodeCall(selSet, flag, prev, value),
		}
		c.addTx(tx)
		c.marks = append(c.marks, types.NextMark(prev, value))
	case op < 55: // buy on a live interval
		prev := c.interval(committed)
		tx := &types.Transaction{
			Nonce: c.nonce, From: sender, To: contract,
			GasPrice: 10, GasLimit: 100,
			Data: types.EncodeCall(selBuy, types.FlagChain, prev, types.WordFromUint64(7)),
		}
		c.addTx(tx)
	case op < 62: // noise: foreign contract, bad flag, short calldata
		tx := &types.Transaction{
			Nonce: c.nonce, From: sender, To: contract,
			GasPrice: 10, GasLimit: 100,
			Data: types.EncodeCall(selSet, types.WordFromUint64(9), types.ZeroWord, types.ZeroWord),
		}
		switch c.rng.Intn(3) {
		case 0:
			tx.To = types.Address{19: 0xdd}
		case 1:
			tx.Data = tx.Data[:7]
		}
		c.addTx(tx)
	case op < 70: // re-admission of a removed tx (same hash, new arrival)
		if len(c.removed) == 0 {
			return
		}
		i := c.rng.Intn(len(c.removed))
		tx := c.removed[i]
		c.removed = append(c.removed[:i], c.removed[i+1:]...)
		c.addTx(tx)
	default: // removal
		if len(c.live) == 0 {
			return
		}
		i := c.rng.Intn(len(c.live))
		c.pool.Remove([]types.Hash{c.live[i].Hash()})
		c.removed = append(c.removed, c.live[i])
		c.live = append(c.live[:i], c.live[i+1:]...)
	}
}

var (
	selSet = cfg().SetSelector
	selBuy = cfg().BuySelector
)

// buyIndex returns the buy lists of d's vertices by the interval they
// target, leaving out the empty ones: the lists themselves, not copies,
// so a caller sees what their backing arrays hold.
func buyIndex(d *dag) map[types.Word][]*types.Transaction {
	out := make(map[types.Word][]*types.Transaction)
	for mark, v := range d.vertices {
		if len(v.buys) > 0 {
			out[mark] = v.buys
		}
	}
	return out
}

// remark moves the set tx, a vertex's only holder, under mark, as a
// forged mark would have filed it.
func remark(d *dag, tx *types.Transaction, mark types.Word) {
	e := d.sets[tx]
	old := e.v
	old.holders = slices.DeleteFunc(old.holders, func(h *entry) bool { return h == e })
	d.release(e.mark, old)
	e.mark, e.v = mark, d.vertexOf(mark)
	e.v.holders = append(e.v.holders, e)
}

// checkVertices fails the test unless every vertex of d lists something
// and lists it where it belongs: a holder produces the vertex's mark and
// points back at it, a child is the active holder of its own mark and
// chains off this one, and a buy targets this interval.
func checkVertices(t *testing.T, step int, d *dag) {
	t.Helper()
	holders := 0
	for mark, v := range d.vertices {
		if len(v.holders) == 0 && len(v.kids) == 0 && len(v.buys) == 0 {
			t.Fatalf("step %d: an empty vertex stays in the table", step)
		}
		for i, e := range v.holders {
			if e.mark != mark || e.v != v || d.sets[e.tx] != e || i > 0 && v.holders[i-1].seq >= e.seq {
				t.Fatalf("step %d: holder %d of a vertex is filed elsewhere or out of order", step, i)
			}
		}
		holders += len(v.holders)
		for i, e := range v.kids {
			if e.fpv.PrevMark != mark || e.v.holders[0] != e || i > 0 && v.kids[i-1].seq >= e.seq {
				t.Fatalf("step %d: child %d of a vertex is not an active set chained off it, or out of order", step, i)
			}
		}
		for _, tx := range v.buys {
			if interval, ok := d.cfg.buyInterval(tx); !ok || interval != mark {
				t.Fatalf("step %d: a buy is listed under an interval it does not target", step)
			}
		}
	}
	if holders != len(d.sets) {
		t.Fatalf("step %d: %d holders for %d sets", step, holders, len(d.sets))
	}
}

// sameNodes reports whether two series hold the same transaction
// instances with the same FPVs and marks, in the same order.
func sameNodes(a, b []*Node) bool {
	return slices.EqualFunc(a, b, func(x, y *Node) bool { return *x == *y })
}

// checkAgainstReference asserts that the three ways to an answer agree on
// the pool's snapshot: the attached tracker's dag, which the change feed
// maintains; a detached tracker, which fills a dag with the slice; and
// reference_test.go's literal algorithms. View, series, every buy bucket
// and the semantic prefix must be equal — the same transaction pointers
// in the same order — and the attached tracker must have taken the live
// path for its pool's own snapshot, also for the prefix without two
// senders' transactions. It returns the series length.
func checkAgainstReference(t *testing.T, step int, inc, det *Tracker, pool *txpool.Pool) int {
	t.Helper()
	snap, _ := pool.Snapshot()
	committed := det.Committed()
	nodes, buys := refProcess(det.cfg, snap)
	series := refSeries(det.cfg, committed.Mark, nodes)

	live, ok := inc.View()
	if want := refView(committed, series); !ok || live != want || det.ViewOf(snap) != want {
		t.Fatalf("step %d: live view %+v (ok=%v), detached %+v, reference %+v (pool %d txs)",
			step, live, ok, det.ViewOf(snap), want, len(snap))
	}
	if !sameNodes(inc.Series(), series) || !sameNodes(det.SeriesOf(snap), series) {
		t.Fatalf("step %d: live or detached series differs from the reference series of %d sets", step, len(series))
	}

	inc.mu.RLock()
	same := maps.EqualFunc(buyIndex(inc.dag), buys, slices.Equal[[]*types.Transaction])
	checkVertices(t, step, inc.dag)
	inc.mu.RUnlock()
	if !same || !maps.EqualFunc(buyIndex(fill(det.cfg, snap)), buys, slices.Equal[[]*types.Transaction]) {
		t.Fatalf("step %d: live or detached buy index differs from the reference's %d buckets", step, len(buys))
	}

	want := refPrefix(committed.Mark, buys, series)
	got, isLive := inc.AppendSemanticPrefix(nil, snap, nil)
	if !isLive || !slices.Equal(got, want) {
		t.Fatalf("step %d: live prefix of %d txs (live=%v), reference %d", step, len(got), isLive, len(want))
	}
	if got, isLive := det.AppendSemanticPrefix(nil, snap, nil); isLive || !slices.Equal(got, want) {
		t.Fatalf("step %d: detached prefix of %d txs (live=%v), reference %d", step, len(got), isLive, len(want))
	}

	// A censor's reading: the prefix of the snapshot less two senders'
	// transactions, their sets among them, is the reference's over the
	// kept slice — read off the live dag, which still holds them.
	excluded := map[types.Address]struct{}{{19: byte(step%5 + 1)}: {}, {19: byte(step/5%5 + 1)}: {}}
	var kept []*types.Transaction
	for _, tx := range snap {
		if _, out := excluded[tx.From]; !out {
			kept = append(kept, tx)
		}
	}
	nodes, buys = refProcess(det.cfg, kept)
	want = refPrefix(committed.Mark, buys, refSeries(det.cfg, committed.Mark, nodes))
	if got, isLive := inc.AppendSemanticPrefix(nil, snap, excluded); !isLive || !slices.Equal(got, want) {
		t.Fatalf("step %d: live prefix without senders %v: %d txs (live=%v), reference %d", step, slices.Collect(maps.Keys(excluded)), len(got), isLive, len(want))
	}
	if got, _ := det.AppendSemanticPrefix(nil, snap, excluded); !slices.Equal(got, want) {
		t.Fatalf("step %d: detached prefix without senders: %d txs, reference %d", step, len(got), len(want))
	}
	return len(series)
}

// TestIncrementalEquivalence: after every one of 1500 randomized churn
// steps (adds, duplicate marks, buys, noise, removals, re-admissions,
// committed-state rebases and pool clears), with and without the
// ExtendHeads ablation, the dag the change feed maintains, a dag filled
// from the pool's snapshot and the paper's literal algorithms give the
// same view, series, buy index and semantic prefix. A snapshot the pool
// has moved past must fill a dag of its own and still get the prefix of
// its own content.
func TestIncrementalEquivalence(t *testing.T) {
	for _, ext := range []bool{false, true} {
		name := "baseline"
		if ext {
			name = "extendheads"
		}
		t.Run(name, func(t *testing.T) {
			trCfg := cfg()
			trCfg.ExtendHeads = ext
			pool := txpool.New()
			inc := NewTracker(trCfg)
			inc.Attach(pool)
			det := NewTracker(trCfg) // never attached: fills a dag per call

			ch := newChurner(0xC00C+int64(len(name)), pool)
			committed := types.AMV{}
			deepest := 0
			for step := 0; step < 1500; step++ {
				old, oldGen := pool.Snapshot()
				ch.step(committed.Mark)
				switch ch.rng.Intn(40) {
				case 0: // rebase committed onto a live mark
					committed = types.AMV{
						Address: types.Address{19: 0xaa},
						Mark:    ch.marks[ch.rng.Intn(len(ch.marks))],
						Value:   types.WordFromUint64(uint64(step)),
					}
					inc.SetCommitted(committed)
					det.SetCommitted(committed)
				case 1: // block-publication style flush
					if ch.rng.Intn(4) == 0 {
						pool.Clear()
						ch.removed = append(ch.removed, ch.live...)
						ch.live = nil
					}
				}
				deepest = max(deepest, checkAgainstReference(t, step, inc, det, pool))
				if pool.Generation() != oldGen {
					nodes, buys := refProcess(trCfg, old)
					want := refPrefix(committed.Mark, buys, refSeries(trCfg, committed.Mark, nodes))
					if stale, live := inc.AppendSemanticPrefix(nil, old, nil); live || !slices.Equal(stale, want) {
						t.Fatalf("step %d: a snapshot the pool moved past: live=%v, %d txs, want %d", step, live, len(stale), len(want))
					}
				}
			}
			if deepest < 4 {
				t.Fatalf("deepest series %d: the churn never builds a series worth comparing", deepest)
			}
			t.Logf("deepest series %d", deepest)
			if pool.Len() == 0 {
				t.Log("pool drained; churn mix may be too removal-heavy")
			}
		})
	}
}

// TestAttachSeedsExistingPool verifies Attach replays the pool's current
// content: the view over a pre-populated pool is ViewOf its pending set.
func TestAttachSeedsExistingPool(t *testing.T) {
	pool := txpool.New()
	prev := types.ZeroWord
	flag := types.FlagHead
	for i := 0; i < 25; i++ {
		v := types.WordFromUint64(uint64(i + 1))
		tx := &types.Transaction{
			Nonce: uint64(i), From: owner, To: contract,
			GasPrice: 10, GasLimit: 100,
			Data: types.EncodeCall(selSet, flag, prev, v),
		}
		if err := pool.Add(tx); err != nil {
			t.Fatal(err)
		}
		prev = types.NextMark(prev, v)
		flag = types.FlagChain
	}
	tr := NewTracker(cfg())
	tr.Attach(pool)
	got, ok := tr.View()
	if !ok {
		t.Fatal("not attached")
	}
	if got.Depth != 25 || got.AMV.Mark != prev {
		t.Fatalf("seeded view = %+v", got)
	}
	if want := NewTracker(cfg()).ViewOf(pool.Pending()); got != want {
		t.Fatalf("seeded view %+v != ViewOf the pending set %+v", got, want)
	}
}

// TestViewCachedUntilPoolChanges pins the O(1) fast path: an unchanged
// generation returns the identical cached view, and any relevant pool
// delta or committed rebase invalidates it.
func TestViewCachedUntilPoolChanges(t *testing.T) {
	pool := txpool.New()
	tr := NewTracker(cfg())
	tr.Attach(pool)

	mk := func(nonce uint64, flag, prev, value types.Word) *types.Transaction {
		return &types.Transaction{
			Nonce: nonce, From: owner, To: contract,
			GasPrice: 10, GasLimit: 100,
			Data: types.EncodeCall(selSet, flag, prev, value),
		}
	}
	if err := pool.Add(mk(0, types.FlagHead, types.ZeroWord, types.WordFromUint64(5))); err != nil {
		t.Fatal(err)
	}
	gen := tr.Generation()
	if gen != pool.Generation() {
		t.Fatalf("tracker gen %d != pool gen %d", gen, pool.Generation())
	}
	v1, _ := tr.View()
	v2, _ := tr.View()
	if v1 != v2 || v1.Depth != 1 {
		t.Fatalf("cached view changed: %+v vs %+v", v1, v2)
	}
	// Irrelevant traffic bumps the generation but keeps the cached view.
	foreign := mk(1, types.FlagHead, types.ZeroWord, types.WordFromUint64(6))
	foreign.To = types.Address{19: 0xdd}
	if err := pool.Add(foreign); err != nil {
		t.Fatal(err)
	}
	if tr.Generation() != pool.Generation() {
		t.Fatal("generation not tracked")
	}
	if v3, _ := tr.View(); v3 != v1 {
		t.Fatalf("foreign tx changed view: %+v", v3)
	}
	// A relevant delta changes the view.
	m1 := types.NextMark(types.ZeroWord, types.WordFromUint64(5))
	if err := pool.Add(mk(2, types.FlagChain, m1, types.WordFromUint64(7))); err != nil {
		t.Fatal(err)
	}
	if v4, _ := tr.View(); v4.Depth != 2 {
		t.Fatalf("delta not applied: %+v", v4)
	}
	// Committed rebase invalidates too: the chain-flagged successor of
	// the newly committed mark is an orphan (the paper's §V-C loss), so
	// the view falls back to committed state.
	tr.SetCommitted(types.AMV{Mark: m1})
	if v5, _ := tr.View(); v5.Depth != 0 || v5.AMV.Mark != m1 || v5.Flag != types.FlagHead {
		t.Fatalf("rebase not applied: %+v", v5)
	}
}

// TestUnattachedViewReportsNotOK: a tracker serves View and Series only
// once attached to a pool; before, View reports not ok.
func TestUnattachedViewReportsNotOK(t *testing.T) {
	tr := NewTracker(cfg())
	if _, ok := tr.View(); ok {
		t.Fatal("unattached tracker claimed a view")
	}
	if tr.Attached() {
		t.Fatal("unattached tracker claims attachment")
	}
	if tr.Series() != nil {
		t.Fatal("unattached tracker claimed a series")
	}
}

// TestConcurrentViewChurn exercises the locking contract under -race:
// parallel View readers, readers filling their own dags, pool
// writers and committed rebases must not race or deadlock (lock order
// pool.mu -> tracker.mu).
func TestConcurrentViewChurn(t *testing.T) {
	pool := txpool.New()
	tr := NewTracker(cfg())
	tr.Attach(pool)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			ch := newChurner(seed, pool)
			for i := 0; i < 400; i++ {
				ch.step(types.ZeroWord)
			}
		}(int64(w + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tr.SetCommitted(types.AMV{Value: types.WordFromUint64(uint64(i))})
			tr.SetCommitted(types.AMV{})
		}
	}()
	readers := sync.WaitGroup{}
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			ref := NewTracker(cfg())
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := tr.View(); !ok {
					t.Error("attached tracker lost its view")
					return
				}
				_ = ref.ViewOf(pool.Pending())
				_ = tr.Generation()
				// Block assembly and sereth_series read the same DAG; a
				// snapshot that raced a writer must fill a dag of its own,
				// never read a half-matching live one.
				snap, _ := pool.Snapshot()
				prefix, _ := tr.AppendSemanticPrefix(nil, snap, nil)
				for _, tx := range prefix {
					if !slices.Contains(snap, tx) {
						t.Error("prefix holds a transaction that is not in the snapshot it was asked about")
						return
					}
				}
				_ = tr.Series()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	// Steady state: the fed dag answers as one filled from the pending set.
	got, _ := tr.View()
	if want := NewTracker(cfg()).ViewOf(pool.Pending()); got != want {
		t.Fatalf("post-churn views diverged: %+v vs %+v", got, want)
	}
}

// TestAttachAfterReAdmission seeds a tracker from a pool whose arrival
// log contains a stale duplicate (remove + re-add of the same hash) and
// verifies the DAG neither double-counts the entry nor leaves a ghost
// after the final removal.
func TestAttachAfterReAdmission(t *testing.T) {
	pool := txpool.New()
	set := &types.Transaction{
		Nonce: 1, From: owner, To: contract, GasPrice: 10, GasLimit: 100,
		Data: types.EncodeCall(selSet, types.FlagHead, types.ZeroWord, types.WordFromUint64(5)),
	}
	if err := pool.Add(set); err != nil {
		t.Fatal(err)
	}
	pool.Remove([]types.Hash{set.Hash()})
	if err := pool.Add(set); err != nil {
		t.Fatal(err)
	}

	tr := NewTracker(cfg())
	tr.Attach(pool)
	got, _ := tr.View()
	if want := NewTracker(cfg()).ViewOf(pool.Pending()); got != want {
		t.Fatalf("post-re-admission view %+v != ViewOf the pending set %+v", got, want)
	}
	if got.Depth != 1 {
		t.Fatalf("depth = %d, want 1", got.Depth)
	}
	pool.Remove([]types.Hash{set.Hash()})
	got, _ = tr.View()
	if got.Depth != 0 {
		t.Fatalf("ghost entry survived removal: %+v", got)
	}
	if want := NewTracker(cfg()).ViewOf(pool.Pending()); got != want {
		t.Fatalf("post-removal view %+v != ViewOf the pending set %+v", got, want)
	}
}

// TestAttachDuringConcurrentChurn attaches a tracker while another
// goroutine is actively mutating the pool: txpool.Watch seeds and
// subscribes under the pool's lock, so every mutation lands either in
// the seed or in the feed and the tracker converges to the view of the
// final pending set with no ghosts or drops.
func TestAttachDuringConcurrentChurn(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		pool := txpool.New()
		ch := newChurner(int64(trial+1), pool)
		for i := 0; i < 50; i++ {
			ch.step(types.ZeroWord) // pre-populate
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 200; i++ {
				ch.step(types.ZeroWord)
			}
		}()
		tr := NewTracker(cfg())
		tr.Attach(pool) // races the churn goroutine
		<-done
		got, ok := tr.View()
		if !ok {
			t.Fatal("not attached")
		}
		if want := NewTracker(cfg()).ViewOf(pool.Pending()); got != want {
			t.Fatalf("trial %d: post-churn view %+v != ViewOf the pending set %+v", trial, got, want)
		}
	}
}

// TestSemanticPrefixMarkCycle forges what Keccak never yields: a series
// that walks back onto the committed mark (set b claims the mark set a
// hangs off). The fork choice must terminate however the dag was filled,
// and the committed interval's bucket — placed before the first set — must not
// be scheduled a second time behind b.
func TestSemanticPrefixMarkCycle(t *testing.T) {
	pool := txpool.New()
	tr := NewTracker(cfg())
	tr.Attach(pool)
	committed := types.WordFromUint64(0xC0)
	tr.SetCommitted(types.AMV{Mark: committed})

	one, two := types.WordFromUint64(1), types.WordFromUint64(2)
	markA := types.NextMark(committed, one)
	a := setTx(types.FlagHead, committed, one)
	b := setTx(types.FlagChain, markA, two)
	buyCommitted, buyA := buyTx(committed, one), buyTx(markA, one)
	for _, tx := range []*types.Transaction{buyA, a, buyCommitted, b} {
		if err := pool.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := pool.Snapshot()
	want := []*types.Transaction{snap[2], snap[1], snap[0], snap[3]} // buyCommitted, a, buyA, b

	// The forgery: b's vertex moves under the committed mark.
	forge := func(d *dag) { remark(d, snap[3], committed) }
	tr.mu.Lock()
	forge(tr.dag)
	tr.mu.Unlock()
	got, live := tr.AppendSemanticPrefix(nil, snap, nil)
	if !live || !slices.Equal(got, want) {
		t.Fatalf("live prefix over a mark cycle: live=%v, %d txs, want %d", live, len(got), len(want))
	}
	// The semantic miner draws its fallback's randomness for len(pending)
	// - len(prefix) transactions before it looks for them: the prefix
	// must be distinct transactions of pending, cycle or not.
	if rest := slices.DeleteFunc(slices.Clone(snap), func(tx *types.Transaction) bool { return slices.Contains(got, tx) }); len(rest) != len(snap)-len(got) {
		t.Fatalf("the prefix of %d leaves %d of %d pending", len(got), len(rest), len(snap))
	}

	// The same forgery on a dag filled from the snapshot, and on the
	// reference's Algorithm 2 output.
	d := fill(cfg(), snap)
	forge(d)
	if series := d.series(committed); len(series) != 2 || !slices.Equal(d.semanticPrefix(nil, committed, nil), want) {
		t.Fatalf("detached prefix over a mark cycle: series %d, %d txs, want %d", len(series), len(d.semanticPrefix(nil, committed, nil)), len(want))
	}
	nodes, buys := refProcess(cfg(), snap)
	nodes[1].Mark = committed
	series := refSeries(cfg(), committed, nodes)
	if got := refPrefix(committed, buys, series); len(series) != 2 || !slices.Equal(got, want) {
		t.Fatalf("reference prefix over a mark cycle: series %d, %d txs, want %d", len(series), len(got), len(want))
	}
}

// TestBuyIndexDropsRemovedTransactions: the buy index is fed by the same
// change feed as the DAG, so a removed buy must leave it entirely — not
// even a vacated slot behind a bucket's length may keep the transaction
// reachable.
func TestBuyIndexDropsRemovedTransactions(t *testing.T) {
	pool := txpool.New()
	tr := NewTracker(cfg())
	tr.Attach(pool)
	interval := types.WordFromUint64(9)
	var buys []*types.Transaction
	for i := 0; i < 4; i++ {
		admitted, err := pool.Admit(buyTx(interval, types.WordFromUint64(uint64(i))))
		if err != nil {
			t.Fatal(err)
		}
		buys = append(buys, admitted)
	}
	holds := func(tx *types.Transaction) bool {
		tr.mu.RLock()
		defer tr.mu.RUnlock()
		for _, bucket := range buyIndex(tr.dag) {
			if slices.Contains(bucket[:cap(bucket)], tx) {
				return true
			}
		}
		return false
	}
	pool.Remove([]types.Hash{buys[1].Hash(), buys[3].Hash()})
	if holds(buys[1]) || holds(buys[3]) || !holds(buys[0]) || !holds(buys[2]) {
		t.Fatal("after Remove the bucket holds a removed buy or lost a resident one")
	}
	if got, _ := tr.AppendSemanticPrefix(nil, nil, nil); len(got) != 0 {
		t.Fatalf("prefix of an empty pending = %d txs", len(got))
	}
	pool.Clear()
	tr.mu.RLock()
	left := len(buyIndex(tr.dag))
	tr.mu.RUnlock()
	if left != 0 {
		t.Fatalf("after Clear the buy index still has %d buckets", left)
	}
}

// TestSetAndBuysAllocateOneObject pins what an honest set costs the DAG:
// a head set and four buys on its mark, admitted into an attached
// tracker, allocate one object — the vertex of the set's mark, which
// holds the set's entry, its first child slot and the four buys — and
// none once a settled mark has left its vertex on the dag's free list.
// The committed mark already has a vertex (a buy on the committed
// interval is pending), whose inline child slot takes the set, and which
// keeps the live table large enough for the free list to hold one. The
// tracker is fed the pool's own instances through its change feed, so
// only the DAG is counted; removing them again allocates nothing.
func TestSetAndBuysAllocateOneObject(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	pool := txpool.New()
	tr := NewTracker(cfg())
	tr.Attach(pool)
	committed := types.WordFromUint64(0xC0)
	tr.SetCommitted(types.AMV{Mark: committed})
	if err := pool.Add(buyTx(committed, types.WordFromUint64(1))); err != nil {
		t.Fatal(err)
	}
	value := types.WordFromUint64(7)
	mark := types.NextMark(committed, value)
	txs := []*types.Transaction{setTx(types.FlagHead, committed, value)}
	for i := range 4 {
		txs = append(txs, buyTx(mark, types.WordFromUint64(uint64(i))))
	}
	for i, tx := range txs {
		admitted, err := pool.Admit(tx)
		if err != nil {
			t.Fatal(err)
		}
		txs[i] = admitted
	}
	hashes := make([]types.Hash, len(txs))
	for i, tx := range txs {
		hashes[i] = tx.Hash()
	}
	pool.Remove(hashes)

	feed := func(kind txpool.ChangeKind) {
		for _, tx := range txs {
			tr.onPoolChange(txpool.Change{Kind: kind, Tx: tx})
		}
	}
	cycle := func(t *testing.T) {
		feed(txpool.TxAdded)
		if v, _ := tr.View(); v.Depth != 1 {
			t.Fatalf("view depth %d after the set, want 1", v.Depth)
		}
		feed(txpool.TxRemoved)
	}
	for _, tc := range []struct {
		name string
		free bool
		want float64
	}{{"fresh", false, 1}, {"recycled", true, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(100, func() {
				if !tc.free {
					clear(tr.dag.free)
					tr.dag.free = tr.dag.free[:0]
				}
				cycle(t)
			})
			if allocs != tc.want {
				t.Errorf("a head set and four buys on its mark: %v DAG allocations, want %v", allocs, tc.want)
			}
			if n := len(tr.dag.free); n != 1 {
				t.Errorf("%d vertices on the free list after the set settled, want 1", n)
			}
		})
	}
}
