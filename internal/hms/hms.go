// Package hms implements Hash-Mark-Set, the paper's core contribution: it
// organizes the pending transaction pool into a directed acyclic graph
// keyed by per-transaction marks (mark = Keccak256(prevMark, value)),
// extracts the deepest branch from the head candidates as a sequentially
// consistent series (Algorithms 1-3), and serves the series tail as a
// READ-UNCOMMITTED view of the managed storage variable.
package hms

import (
	"sync"

	"sereth/internal/txpool"
	"sereth/internal/types"
)

// Config identifies the contract and selectors a Tracker manages.
type Config struct {
	// Contract is the Sereth contract address whose state variable is
	// tracked.
	Contract types.Address
	// SetSelector is the selector of the state-changing write function
	// ("set" in the paper); only these transactions enter the series.
	SetSelector types.Selector
	// BuySelector identifies dependent transactions for semantic mining.
	BuySelector types.Selector
	// ExtendHeads additionally treats a chain-flagged transaction whose
	// previous mark equals the committed mark as a head candidate. The
	// paper's baseline algorithm loses 10-20% of transactions right after
	// a block publishes because the pool "no longer contains marked
	// transactions" (§V-C); this extension recovers them and is evaluated
	// as an ablation.
	ExtendHeads bool
}

// Node is one set transaction of a series.
type Node struct {
	Tx   *types.Transaction
	FPV  types.FPV
	Mark types.Word // Keccak256(FPV.PrevMark, FPV.Value)
}

// View is the READ-UNCOMMITTED view returned by Algorithm 1.
type View struct {
	// AMV is the predicted (address, mark, value) of the managed variable.
	AMV types.AMV
	// Flag to place in the next transaction's FPV: FlagHead when the view
	// came from committed state, FlagChain when it is the pending series
	// tail.
	Flag types.Word
	// Depth is the pending series length behind the view (0 = committed).
	Depth int
}

// Tracker computes HMS views for one managed variable. Safe for
// concurrent use.
//
// Every answer is read off a dag (dag.go), and there are two ways to fill
// one. Attach binds the tracker to a txpool.Pool: the pool's change feed
// then maintains the tracker's own dag, View serves a cached result in
// O(1) while neither the series nor the committed state changed, and the
// series and the semantic-mining prefix are read off it without touching
// the pending set. ViewOf, SeriesOf and a SemanticPrefix over any slice
// that is not the attached pool's current snapshot fill a fresh dag with
// the slice, in order, and read the same answers off that.
type Tracker struct {
	cfg Config

	mu        sync.RWMutex
	committed types.AMV
	pool      *txpool.Pool // the attached pool, nil until Attach
	gen       uint64       // pool generation dag reflects
	dag       *dag         // maintained by pool's change feed, nil until Attach
	view      View         // dag's view of committed, when viewOK
	viewOK    bool
}

// NewTracker returns a tracker with a zero committed state (genesis).
func NewTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg}
}

// Config returns the tracker configuration.
func (t *Tracker) Config() Config { return t.cfg }

// SetCommitted records the post-publication contract state; called by the
// chain layer whenever a block commits. A change of committed state
// rebases the head candidates, so it invalidates the cached view.
func (t *Tracker) SetCommitted(amv types.AMV) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if amv != t.committed {
		t.viewOK = false
	}
	t.committed = amv
}

// Committed returns the last committed AMV.
func (t *Tracker) Committed() types.AMV {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.committed
}

// classifySet applies Algorithm 2's admission filter: tx must target the
// managed contract's set function, carry a decodable FPV, and be flagged
// head or chain. It returns the FPV and mark (cached when memoized).
func (c Config) classifySet(tx *types.Transaction) (types.FPV, types.Word, bool) {
	if tx.To != c.Contract {
		return types.FPV{}, types.Word{}, false
	}
	sel, ok := tx.Selector()
	if !ok || sel != c.SetSelector {
		return types.FPV{}, types.Word{}, false
	}
	fpv, err := tx.FPV()
	if err != nil {
		return types.FPV{}, types.Word{}, false
	}
	if fpv.Flag != types.FlagHead && fpv.Flag != types.FlagChain {
		return types.FPV{}, types.Word{}, false // rejected (SUCCESS check)
	}
	var mark types.Word
	if tx.Memoized() {
		mark, _ = tx.Mark() // cached: no Keccak on the hot path
	} else {
		mark = types.NextMark(fpv.PrevMark, fpv.Value)
	}
	return fpv, mark, true
}

// buyInterval reports whether tx is a buy on the managed contract and
// the mark of the set interval it targets (FPV.PrevMark).
func (c Config) buyInterval(tx *types.Transaction) (types.Word, bool) {
	if tx.To != c.Contract {
		return types.Word{}, false
	}
	sel, ok := tx.Selector()
	if !ok || sel != c.BuySelector {
		return types.Word{}, false
	}
	fpv, err := tx.FPV()
	if err != nil {
		return types.Word{}, false
	}
	return fpv.PrevMark, true
}

// IsManaged reports whether tx is an HMS set or buy on the managed
// contract.
func (t *Tracker) IsManaged(tx *types.Transaction) bool {
	if tx.To != t.cfg.Contract {
		return false
	}
	sel, ok := tx.Selector()
	if !ok {
		return false
	}
	return sel == t.cfg.SetSelector || sel == t.cfg.BuySelector
}

// Attach binds the tracker to pool: its dag becomes the DAG of the pool's
// pending set and follows every later mutation through the pool's change
// feed, and View serves views of this pool. The pool may be in use by
// other goroutines — txpool.Watch seeds and subscribes in one step under
// the pool's lock, so no mutation is missed or applied twice. It must be
// called at most once.
func (t *Tracker) Attach(pool *txpool.Pool) {
	if t.Attached() {
		return
	}
	pool.Watch(func(pending []*types.Transaction, gen uint64) {
		t.mu.Lock()
		defer t.mu.Unlock()
		t.pool, t.gen, t.dag = pool, gen, fill(t.cfg, pending)
		t.viewOK = false
	}, t.onPoolChange)
}

// onPoolChange applies one pool mutation to the dag. It runs under the
// pool lock (txpool.Watch contract), so changes arrive in exact
// mutation order; lock order is always pool.mu -> tracker.mu.
func (t *Tracker) onPoolChange(c txpool.Change) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var changed bool
	switch c.Kind {
	case txpool.TxAdded:
		changed = t.dag.insert(c.Tx)
	case txpool.TxRemoved:
		changed = t.dag.delete(c.Tx)
	}
	t.gen = c.Gen
	if changed {
		t.viewOK = false
	}
}

// Attached reports whether the tracker is bound to a pool change feed.
func (t *Tracker) Attached() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dag != nil
}

// Generation returns the pool generation the dag currently reflects.
func (t *Tracker) Generation() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.gen
}

// View returns the READ-UNCOMMITTED view of the attached pool (paper
// Algorithm 1). While the series and committed state are unchanged it
// returns the cached view without any recomputation. ok is false when
// the tracker is not attached — callers then fall back to ViewOf on a
// pool snapshot.
func (t *Tracker) View() (View, bool) {
	t.mu.RLock()
	v, ok, attached := t.view, t.viewOK, t.dag != nil
	t.mu.RUnlock()
	if ok || !attached {
		return v, ok // cache hit (concurrent readers don't serialize), or no pool
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.viewOK {
		t.view = t.dag.view(t.committed)
		t.viewOK = true
	}
	return t.view, true
}

// ViewOf computes the READ-UNCOMMITTED view of a pending set given in
// arrival order (paper Algorithm 1).
func (t *Tracker) ViewOf(pending []*types.Transaction) View {
	return fill(t.cfg, pending).view(t.Committed())
}

// SeriesOf returns the series of a pending set given in arrival order,
// head to tail (paper Algorithms 2 and 3); nil when no valid head exists.
func (t *Tracker) SeriesOf(pending []*types.Transaction) []*Node {
	return fill(t.cfg, pending).series(t.Committed().Mark)
}

// ViewOrSnapshot returns the attached pool's view when the tracker is
// attached, and otherwise ViewOf the pending set supplied by pending —
// the one place the fallback contract lives for all consumers
// (node.ViewAMV, raa.HMSProvider).
func (t *Tracker) ViewOrSnapshot(pending func() []*types.Transaction) View {
	if v, ok := t.View(); ok {
		return v
	}
	return t.ViewOf(pending())
}

// SeriesOrSnapshot returns the pending series, head to tail: the attached
// pool's when the tracker is attached, and otherwise SeriesOf the pending
// set supplied by pending (the ViewOrSnapshot contract).
func (t *Tracker) SeriesOrSnapshot(pending func() []*types.Transaction) []*Node {
	t.mu.Lock()
	if t.dag != nil {
		defer t.mu.Unlock()
		return t.dag.series(t.committed.Mark)
	}
	t.mu.Unlock()
	return t.SeriesOf(pending())
}

// SemanticPrefix returns the head of a semantically ordered block body
// for pending (paper §V-C): the buys bound to the committed interval,
// then each set of the pending series followed by the buys that depend
// on its mark. When pending is the attached pool's snapshot of
// generation g and the tracker's dag reflects g, the prefix is read off
// that dag and live is true; generations only grow and each names one
// pool state, so the two locks are taken one after the other (pool.mu is
// never acquired under tracker.mu). Any other slice — a detached
// tracker's, a snapshot that raced an admission, a filtered copy — fills
// a dag of its own.
func (t *Tracker) SemanticPrefix(pending []*types.Transaction) (prefix []*types.Transaction, live bool) {
	t.mu.RLock()
	pool := t.pool
	t.mu.RUnlock()
	if pool != nil {
		if gen, ok := pool.SnapshotGeneration(pending); ok {
			t.mu.Lock()
			if t.gen == gen {
				defer t.mu.Unlock()
				return t.dag.semanticPrefix(t.committed.Mark), true
			}
			t.mu.Unlock()
		}
	}
	return fill(t.cfg, pending).semanticPrefix(t.Committed().Mark), false
}
