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

// Node is a vertex of the HMS transaction DAG.
type Node struct {
	Tx   *types.Transaction
	FPV  types.FPV
	Mark types.Word // Keccak256(FPV.PrevMark, FPV.Value)
	Prev *Node
	Next []*Node
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
// A tracker has two operating modes. Standalone (the paper's literal
// algorithms): callers pass pool snapshots to ViewOf/SeriesOf and every
// call recomputes from scratch. Incremental: Attach subscribes the
// tracker to a txpool.Pool's change feed, after which it maintains the
// mark-keyed DAG and the buy index under pool deltas; View serves
// cached results in O(1) while the pool generation is unchanged, and
// the series and the semantic-mining prefix are read off the live DAG
// (see incremental.go).
type Tracker struct {
	cfg Config

	mu        sync.RWMutex
	committed types.AMV

	// Incremental engine state; nil/zero until Attach (incremental.go).
	pool     *txpool.Pool // the attached pool
	attached bool
	seeding  bool                    // Attach in progress: events land in backlog
	backlog  []txpool.Change         // mutations racing the Attach snapshot seed
	gen      uint64                  // pool generation reflected in the DAG
	seq      uint64                  // admission order for tie-breaking
	sets     map[types.Hash]*entry   // every live set tx, by identity hash
	dups     map[types.Word][]*entry // mark -> seq-ordered entries; [0] active
	kids     map[types.Word][]*entry // prevMark -> seq-ordered active entries
	// buys indexes every live buy by the mark of the set interval it
	// targets, in arrival order: the live counterpart of buysByInterval.
	buys     map[types.Word][]*types.Transaction
	viewOK   bool
	view     View
	depths   map[*entry]int     // recompute scratch, reused across recomputes
	headsBuf []*entry           // recompute scratch
	stackBuf []dagFrame[*entry] // recompute scratch
}

// NewTracker returns a tracker with a zero committed state (genesis).
func NewTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg}
}

// Config returns the tracker configuration.
func (t *Tracker) Config() Config { return t.cfg }

// SetCommitted records the post-publication contract state; called by the
// chain layer whenever a block commits. A change of committed state
// rebases the incremental engine's head candidates, so it invalidates
// the cached view.
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

// Process filters the pool for relevant set transactions and computes
// their marks (paper Algorithm 2). Transactions whose flag is neither
// headFlag nor successFlag are rejected. Duplicate marks (identical
// prev/value re-submissions) keep the earliest arrival.
func (t *Tracker) Process(pool []*types.Transaction) []*Node {
	var nodes []*Node
	seen := make(map[types.Word]bool)
	for _, tx := range pool {
		fpv, mark, ok := t.classifySet(tx)
		if !ok || seen[mark] {
			continue
		}
		seen[mark] = true
		nodes = append(nodes, &Node{Tx: tx, FPV: fpv, Mark: mark})
	}
	return nodes
}

// classifySet applies Algorithm 2's admission filter: tx must target the
// managed contract's set function, carry a decodable FPV, and be flagged
// head or chain. It returns the FPV and mark (cached when memoized).
// Both view paths — the snapshot Process and the incremental
// insertLocked — share this single filter so they cannot drift.
func (t *Tracker) classifySet(tx *types.Transaction) (types.FPV, types.Word, bool) {
	if tx.To != t.cfg.Contract {
		return types.FPV{}, types.Word{}, false
	}
	sel, ok := tx.Selector()
	if !ok || sel != t.cfg.SetSelector {
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

// Series links the nodes into a DAG and returns the deepest branch from
// the best head candidate (paper Algorithm 3). It returns nil when no
// valid head exists.
func (t *Tracker) Series(nodes []*Node) []*Node {
	if len(nodes) == 0 {
		return nil
	}
	committedMark := t.Committed().Mark

	// Build adjacency: txn2 follows txn when txn.mark == txn2.prevMark.
	byMark := make(map[types.Word]*Node, len(nodes))
	for _, n := range nodes {
		byMark[n.Mark] = n
	}
	for _, n := range nodes {
		if parent, ok := byMark[n.FPV.PrevMark]; ok && parent != n {
			n.Prev = parent
			parent.Next = append(parent.Next, n)
		}
	}

	// Head candidates: head-flagged transactions chaining off the
	// committed mark; optionally chain-flagged orphans that match it.
	// Depths are shared across candidates through one memo table, so the
	// whole fork choice is O(V+E) instead of the exponential path-copying
	// recursion of the literal Algorithm 3.
	depth := make(map[*Node]int, len(nodes))
	var scratch []dagFrame[*Node]
	var best *Node
	bestDepth := 0
	for _, n := range nodes {
		isHead := n.FPV.Flag == types.FlagHead && n.FPV.PrevMark == committedMark
		if t.cfg.ExtendHeads && !isHead {
			isHead = n.Prev == nil && n.FPV.PrevMark == committedMark
		}
		if !isHead {
			continue
		}
		var d int
		if d, scratch = dagDepth(n, nodeNext, depth, scratch); d > bestDepth {
			best, bestDepth = n, d
		}
	}
	if best == nil {
		return nil
	}
	out := make([]*Node, 0, bestDepth)
	walkDeepest(best, nodeNext, depth, func(n *Node) { out = append(out, n) })
	return out
}

func nodeNext(n *Node) []*Node { return n.Next }

// depthPending marks a vertex currently on the DFS stack; edges into it
// are back edges from adversarial mark collisions and are skipped, which
// makes termination unconditional (Lemma 2 only covers honest marks).
const depthPending = -1

// dagFrame is one explicit-stack DFS frame of dagDepth. Hot callers
// (the incremental view recompute) retain the returned stack so steady-
// state recomputes allocate nothing.
type dagFrame[N comparable] struct {
	n     N
	kids  []N // next(n), resolved once when the frame is pushed
	child int
	best  int
}

// dagDepth computes the longest-path node count from root over the DAG
// induced by next, memoizing every reached vertex into depth. The memo
// table is shared across roots, so evaluating all head candidates is
// O(V+E) total. Self edges (next containing the vertex itself) are
// ignored, matching the parent != n guard of the link step. scratch is
// an optional reusable stack buffer; the possibly-grown buffer is
// returned for the caller to retain.
func dagDepth[N comparable](root N, next func(N) []N, depth map[N]int, scratch []dagFrame[N]) (int, []dagFrame[N]) {
	if d, ok := depth[root]; ok && d != depthPending {
		return d, scratch
	}
	type frame = dagFrame[N]
	stack := append(scratch[:0], frame{n: root, kids: next(root)})
	depth[root] = depthPending
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.child < len(f.kids) {
			c := f.kids[f.child]
			f.child++
			if c == f.n {
				continue
			}
			d, seen := depth[c]
			switch {
			case seen && d == depthPending:
				// back edge (mark cycle): skip
			case seen:
				if d > f.best {
					f.best = d
				}
			default:
				depth[c] = depthPending
				stack = append(stack, frame{n: c, kids: next(c)})
			}
			continue
		}
		d := f.best + 1
		depth[f.n] = d
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			p := &stack[len(stack)-1]
			if d > p.best {
				p.best = d
			}
		}
	}
	return depth[root], stack
}

// walkDeepest visits the lexicographically-first deepest path from head
// (the same branch the recursive DEEPESTBRANCH returned: ties between
// equally deep children resolve to the earlier arrival), calling visit
// for each vertex in series order.
func walkDeepest[N comparable](head N, next func(N) []N, depth map[N]int, visit func(N)) {
	n := head
	for {
		visit(n)
		want := depth[n] - 1
		if want <= 0 {
			return
		}
		found := false
		for _, c := range next(n) {
			if c == n {
				continue
			}
			if d, ok := depth[c]; ok && d == want {
				n, found = c, true
				break
			}
		}
		if !found {
			return // cycle-truncated branch (adversarial marks only)
		}
	}
}

// ViewOf computes the READ-UNCOMMITTED view from a pool snapshot
// (paper Algorithm 1).
func (t *Tracker) ViewOf(pool []*types.Transaction) View {
	nodes := t.Process(pool)
	series := t.Series(nodes)
	committed := t.Committed()
	if len(series) == 0 {
		// Empty txnList (or no valid head): the caller's transaction will
		// be the first Sereth transaction of the block — use committed
		// state and the head flag (Algorithm 1 line 5, "specialValue").
		return View{AMV: committed, Flag: types.FlagHead, Depth: 0}
	}
	tail := series[len(series)-1]
	return View{
		AMV: types.AMV{
			Address: tail.Tx.From,
			Mark:    tail.Mark,
			Value:   tail.FPV.Value,
		},
		Flag:  types.FlagChain,
		Depth: len(series),
	}
}

// SeriesOf is a convenience combining Process and Series.
func (t *Tracker) SeriesOf(pool []*types.Transaction) []*Node {
	return t.Series(t.Process(pool))
}

// buyInterval reports whether tx is a buy on the managed contract and
// the mark of the set interval it targets (FPV.PrevMark). The snapshot
// buysByInterval and the incremental buy index share this filter.
func (t *Tracker) buyInterval(tx *types.Transaction) (types.Word, bool) {
	if tx.To != t.cfg.Contract {
		return types.Word{}, false
	}
	sel, ok := tx.Selector()
	if !ok || sel != t.cfg.BuySelector {
		return types.Word{}, false
	}
	fpv, err := tx.FPV()
	if err != nil {
		return types.Word{}, false
	}
	return fpv.PrevMark, true
}

// buysByInterval groups the pool's buy transactions by the interval
// they target, in arrival order.
func (t *Tracker) buysByInterval(pool []*types.Transaction) map[types.Word][]*types.Transaction {
	out := make(map[types.Word][]*types.Transaction)
	for _, tx := range pool {
		if mark, ok := t.buyInterval(tx); ok {
			out[mark] = append(out[mark], tx)
		}
	}
	return out
}

// semanticPrefix is the semantic miner's interleaving (paper §V-C): the
// buys bound to the committed interval execute before any pending set,
// then each set of the series is followed by the buys that depend on its
// mark. Only an adversarial mark cycle leads a series back onto the
// committed mark; that bucket is already placed and is not scheduled
// twice: the miner counts on a prefix of distinct pool transactions.
func semanticPrefix(committedMark types.Word, buys map[types.Word][]*types.Transaction, series []*Node) []*types.Transaction {
	out := append([]*types.Transaction(nil), buys[committedMark]...)
	for _, n := range series {
		out = append(out, n.Tx)
		if n.Mark != committedMark {
			out = append(out, buys[n.Mark]...)
		}
	}
	return out
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
