package hms

// Incremental view engine. The literal Algorithms 1-3 recompute the
// whole DAG from a pool snapshot on every call: each view re-parses and
// re-hashes every pending transaction (O(pool) Keccaks) and rebuilds the
// adjacency maps. Attached to a pool's change feed, the tracker instead
// maintains the mark-keyed DAG under O(Δ) insert/delete work per pool
// mutation and recomputes the view lazily — an O(V+E) pointer-chasing
// pass with zero hashing, only when the DAG or committed state actually
// changed since the last call. η semantics are bit-identical to the
// from-scratch path: TestIncrementalEquivalence churns a pool at random
// and asserts View == ViewOf(Pending()) at every step.

import (
	"slices"
	"sort"

	"sereth/internal/txpool"
	"sereth/internal/types"
)

// entry is a vertex of the incrementally maintained DAG. Unlike Node it
// carries the admission sequence number, which reproduces the arrival
// -order tie-breaking of the snapshot path (Process keeps the earliest
// duplicate; Series scans heads and children in arrival order).
type entry struct {
	tx   *types.Transaction
	fpv  types.FPV
	mark types.Word
	seq  uint64
}

// Attach subscribes the tracker to the pool's change feed and seeds the
// DAG from the pool's current content. It must be called at most once.
// Pool mutations racing the seeding are buffered and replayed in order,
// so Attach on a live pool is safe. After Attach, View serves
// incrementally maintained views of this pool.
func (t *Tracker) Attach(pool *txpool.Pool) {
	t.mu.Lock()
	if t.attached {
		t.mu.Unlock()
		return
	}
	t.pool = pool
	t.attached = true
	t.seeding = true
	t.sets = make(map[types.Hash]*entry)
	t.buys = make(map[types.Word][]*types.Transaction)
	t.dups = make(map[types.Word][]*entry)
	t.kids = make(map[types.Word][]*entry)
	t.depths = make(map[*entry]int)
	t.mu.Unlock()

	// Watch registers the handler and snapshots atomically under the pool
	// lock; every event fired afterwards carries Gen > gen and lands in
	// the backlog until the snapshot is applied.
	snap, gen := pool.Watch(t.onPoolChange)
	t.mu.Lock()
	for _, tx := range snap {
		t.insertLocked(tx)
	}
	t.gen = gen
	for _, c := range t.backlog {
		t.applyLocked(c)
	}
	t.backlog = nil
	t.seeding = false
	t.viewOK = false
	t.mu.Unlock()
}

// Attached reports whether the tracker is bound to a pool change feed.
func (t *Tracker) Attached() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.attached
}

// Generation returns the pool generation the DAG currently reflects.
func (t *Tracker) Generation() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.gen
}

// View returns the READ-UNCOMMITTED view maintained incrementally from
// the attached pool's change feed. While the pool generation and
// committed state are unchanged it returns the cached view without any
// recomputation. ok is false when the tracker is not attached — callers
// then fall back to ViewOf on a pool snapshot.
func (t *Tracker) View() (View, bool) {
	t.mu.RLock()
	if !t.attached || t.seeding {
		// Not attached, or Attach has not finished seeding the DAG yet:
		// report not-ready so callers fall back to a snapshot ViewOf
		// instead of caching a view of the partially seeded pool.
		t.mu.RUnlock()
		return View{}, false
	}
	if t.viewOK {
		v := t.view
		t.mu.RUnlock()
		return v, true // cache hit: concurrent readers don't serialize
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.attached || t.seeding {
		return View{}, false
	}
	if !t.viewOK {
		t.view = t.recomputeLocked()
		t.viewOK = true
	}
	return t.view, true
}

// ViewOrSnapshot returns the incrementally maintained view when the
// tracker is attached and ready, and otherwise recomputes from the
// pending snapshot supplied by fallback — the one place the fallback
// contract lives for all consumers (node.ViewAMV, raa.HMSProvider).
func (t *Tracker) ViewOrSnapshot(pending func() []*types.Transaction) View {
	if v, ok := t.View(); ok {
		return v
	}
	return t.ViewOf(pending())
}

// onPoolChange applies one pool mutation to the DAG. It runs under the
// pool lock (txpool.Watch contract), so changes arrive in exact
// mutation order; lock order is always pool.mu -> tracker.mu.
func (t *Tracker) onPoolChange(c txpool.Change) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seeding {
		// Attach has registered the watcher but not applied its snapshot
		// yet; defer the event so it replays after the seed, in order.
		t.backlog = append(t.backlog, c)
		return
	}
	t.applyLocked(c)
}

func (t *Tracker) applyLocked(c txpool.Change) {
	var changed bool
	switch c.Kind {
	case txpool.TxAdded:
		changed = t.insertLocked(c.Tx)
	case txpool.TxRemoved:
		changed = t.deleteLocked(c.Tx)
	}
	t.gen = c.Gen
	if changed {
		t.viewOK = false
	}
}

// insertLocked admits one transaction into the DAG or the buy index.
// Returns false for transactions the view does not depend on (foreign
// contracts, buys, rejected flags), which then keep the cached view
// valid.
func (t *Tracker) insertLocked(tx *types.Transaction) bool {
	if interval, ok := t.buyInterval(tx); ok {
		bucket := t.buys[interval]
		if bucket == nil {
			bucket = make([]*types.Transaction, 0, 4) // a set is typically followed by a few buys
		}
		t.buys[interval] = append(bucket, tx)
	}
	fpv, mark, ok := t.classifySet(tx)
	if !ok {
		return false
	}
	h := tx.Hash()
	if _, dup := t.sets[h]; dup {
		return false // already tracked; the pool never double-admits a hash
	}
	t.seq++
	e := &entry{tx: tx, fpv: fpv, mark: mark, seq: t.seq}
	t.sets[h] = e
	lst := t.dups[mark]
	t.dups[mark] = append(lst, e) // new seq is maximal: list stays sorted
	if len(lst) > 0 {
		// An inactive duplicate: the active entry and the adjacency are
		// untouched, so the cached view stays valid.
		return false
	}
	t.activateLocked(e) // first holder of this mark becomes active
	return true
}

// deleteLocked removes one transaction from the DAG or the buy index.
// When the active holder of a mark leaves, the earliest surviving
// duplicate (if any) takes its place — exactly what the snapshot path's
// first-arrival dedupe would now select.
func (t *Tracker) deleteLocked(tx *types.Transaction) bool {
	if interval, ok := t.buyInterval(tx); ok {
		// The feed removes the instance it added; slices.Delete zeroes the
		// vacated slot, so the bucket does not pin it.
		lst := t.buys[interval]
		if i := slices.Index(lst, tx); i >= 0 {
			lst = slices.Delete(lst, i, i+1)
		}
		if len(lst) == 0 {
			delete(t.buys, interval)
		} else {
			t.buys[interval] = lst
		}
	}
	h := tx.Hash()
	e, ok := t.sets[h]
	if !ok {
		return false
	}
	delete(t.sets, h)
	lst := t.dups[e.mark]
	idx := 0
	for idx < len(lst) && lst[idx] != e {
		idx++
	}
	if idx == len(lst) {
		return true // unreachable: sets and dups are kept in lockstep
	}
	lst = append(lst[:idx], lst[idx+1:]...)
	if len(lst) == 0 {
		delete(t.dups, e.mark)
	} else {
		t.dups[e.mark] = lst
	}
	if idx != 0 {
		// An inactive duplicate left: active entry and adjacency are
		// untouched, so the cached view stays valid.
		return false
	}
	t.activeChangedLocked(e, lst)
	return true
}

// activeChangedLocked swaps the active entry for a mark: old leaves the
// adjacency, and the new earliest duplicate (if any) enters at its
// arrival position.
func (t *Tracker) activeChangedLocked(old *entry, remaining []*entry) {
	t.deactivateLocked(old)
	if len(remaining) > 0 {
		t.activateLocked(remaining[0])
	}
}

// activateLocked inserts e into its parent's child list at the position
// its arrival order dictates (lists are seq-sorted so child iteration
// matches the snapshot path's arrival-order scan).
func (t *Tracker) activateLocked(e *entry) {
	lst := t.kids[e.fpv.PrevMark]
	i := sort.Search(len(lst), func(i int) bool { return lst[i].seq > e.seq })
	lst = append(lst, nil)
	copy(lst[i+1:], lst[i:])
	lst[i] = e
	t.kids[e.fpv.PrevMark] = lst
}

func (t *Tracker) deactivateLocked(e *entry) {
	lst := t.kids[e.fpv.PrevMark]
	for i, x := range lst {
		if x == e {
			lst = append(lst[:i], lst[i+1:]...)
			break
		}
	}
	if len(lst) == 0 {
		delete(t.kids, e.fpv.PrevMark)
	} else {
		t.kids[e.fpv.PrevMark] = lst
	}
}

// activeOf returns the active entry holding mark, or nil.
func (t *Tracker) activeOf(mark types.Word) *entry {
	if lst := t.dups[mark]; len(lst) > 0 {
		return lst[0]
	}
	return nil
}

// walkSeriesLocked runs the fork choice (Algorithm 1+3) over the live
// DAG — collect head candidates chained off the committed mark, share
// one longest-path memo across them — and visits the deepest branch head
// to tail; it visits nothing when no candidate exists. No hashing, no
// parsing, no per-transaction allocation: the scratch tables are reused
// across calls, which is why callers hold the write lock.
func (t *Tracker) walkSeriesLocked(visit func(*entry)) {
	committedMark := t.committed.Mark

	// The scratch tables keep their capacity across calls but must not
	// keep their contents: stale *entry pointers (in the depth memo and
	// beyond the live length of the buffers) would pin removed
	// transactions in memory until the next walk.
	defer func() {
		clear(t.depths)
		clear(t.headsBuf[:cap(t.headsBuf)])
		clear(t.stackBuf[:cap(t.stackBuf)])
	}()

	heads := t.headsBuf[:0]
	// Every candidate chains off the committed mark, so the adjacency
	// list for committedMark is exactly the candidate pool (arrival
	// order preserved by the seq-sorted child lists).
	for _, e := range t.kids[committedMark] {
		isHead := e.fpv.Flag == types.FlagHead
		if t.cfg.ExtendHeads && !isHead {
			parent := t.activeOf(e.fpv.PrevMark)
			isHead = parent == nil || parent == e
		}
		if isHead {
			heads = append(heads, e)
		}
	}
	t.headsBuf = heads[:0]

	next := func(e *entry) []*entry { return t.kids[e.mark] }
	var best *entry
	bestDepth := 0
	for _, h := range heads {
		var d int
		if d, t.stackBuf = dagDepth(h, next, t.depths, t.stackBuf); d > bestDepth {
			best, bestDepth = h, d
		}
	}
	if best != nil {
		walkDeepest(best, next, t.depths, visit)
	}
}

// recomputeLocked reads the view off the live series: its tail, or the
// committed state under the head flag when the series is empty.
func (t *Tracker) recomputeLocked() View {
	// Depth is the walked series length, not the DP depth: the two only
	// differ when an adversarial mark cycle truncates the walk, and the
	// snapshot path's ViewOf reports the truncated length there too.
	var tail *entry
	seriesLen := 0
	t.walkSeriesLocked(func(e *entry) { tail = e; seriesLen++ })
	if tail == nil {
		return View{AMV: t.committed, Flag: types.FlagHead, Depth: 0}
	}
	return View{
		AMV: types.AMV{
			Address: tail.tx.From,
			Mark:    tail.mark,
			Value:   tail.fpv.Value,
		},
		Flag:  types.FlagChain,
		Depth: seriesLen,
	}
}

// seriesLocked returns the live series as unlinked nodes (Prev and Next
// stay nil: the adjacency lives in the tracker's own maps).
func (t *Tracker) seriesLocked() (series []*Node) {
	t.walkSeriesLocked(func(e *entry) {
		series = append(series, &Node{Tx: e.tx, FPV: e.fpv, Mark: e.mark})
	})
	return series
}

// SemanticPrefix returns the head of a semantically ordered block body
// for pending (paper §V-C): the buys bound to the committed interval,
// then each set of the pending series followed by the buys that depend
// on its mark. When pending is the attached pool's snapshot of
// generation g and the DAG reflects g, the prefix is read off the live
// DAG and buy index and live is true; generations only grow and each
// names one pool state, so the two locks are taken one after the other
// (pool.mu is never acquired under tracker.mu). Any other slice — a
// standalone tracker's, a snapshot that raced an admission, a filtered
// copy — is processed from scratch, which is also the reference the
// live path is tested against.
func (t *Tracker) SemanticPrefix(pending []*types.Transaction) (prefix []*types.Transaction, live bool) {
	t.mu.RLock()
	pool := t.pool
	t.mu.RUnlock()
	if pool != nil {
		if gen, ok := pool.SnapshotGeneration(pending); ok {
			t.mu.Lock()
			if !t.seeding && t.gen == gen {
				defer t.mu.Unlock()
				return semanticPrefix(t.committed.Mark, t.buys, t.seriesLocked()), true
			}
			t.mu.Unlock()
		}
	}
	return semanticPrefix(t.Committed().Mark, t.buysByInterval(pending), t.SeriesOf(pending)), false
}

// SeriesOrSnapshot returns the pending series, head to tail: read off
// the live DAG when the tracker is attached and ready, and otherwise
// SeriesOf the snapshot supplied by pending (the ViewOrSnapshot
// contract).
func (t *Tracker) SeriesOrSnapshot(pending func() []*types.Transaction) []*Node {
	t.mu.Lock()
	if t.attached && !t.seeding {
		defer t.mu.Unlock()
		return t.seriesLocked()
	}
	t.mu.Unlock()
	return t.SeriesOf(pending())
}
