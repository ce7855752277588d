package hms

import (
	"slices"
	"sort"

	"sereth/internal/types"
)

// entry is a vertex of the DAG. seq is its insertion position: the
// arrival order Algorithm 2's first-holder dedupe and Algorithm 3's
// head and child scans break ties by.
type entry struct {
	tx   *types.Transaction
	fpv  types.FPV
	mark types.Word
	seq  uint64
}

// dag is the mark-keyed transaction DAG of one pending set plus its buy
// index, and the one place Algorithms 1-3 are implemented. It is filled
// by insert in arrival order — an attached tracker's by the pool's change
// feed, O(Δ) per mutation with no hashing (the pool's instances carry
// their marks), a detached one's by fill over a slice — and every answer
// (view, series, semanticPrefix) is read off it by one fork choice, an
// O(V+E) pointer-chasing pass. It is not safe for concurrent use, reads
// included: the walk reuses the scratch tables.
type dag struct {
	cfg  Config
	seq  uint64                        // insertions so far
	sets map[*types.Transaction]*entry // every set, by the instance inserted
	dups map[types.Word][]*entry       // mark -> seq-ordered holders; [0] is active
	kids map[types.Word][]*entry       // prevMark -> seq-ordered active entries
	// buys groups every buy by the mark of the set interval it targets,
	// in arrival order.
	buys map[types.Word][]*types.Transaction

	depths map[*entry]int // walk scratch, cleared after each walk
	heads  []*entry       // walk scratch
	stack  []dagFrame     // walk scratch
}

// fill returns the DAG of pending, inserted in slice order.
func fill(cfg Config, pending []*types.Transaction) *dag {
	d := &dag{
		cfg:    cfg,
		sets:   make(map[*types.Transaction]*entry),
		dups:   make(map[types.Word][]*entry),
		kids:   make(map[types.Word][]*entry),
		buys:   make(map[types.Word][]*types.Transaction),
		depths: make(map[*entry]int),
	}
	for _, tx := range pending {
		d.insert(tx)
	}
	return d
}

// insert admits one transaction into the DAG or the buy index. It
// reports whether the series may have changed: false for transactions
// the view does not depend on (foreign contracts, buys, rejected flags,
// a mark that already has a holder).
func (d *dag) insert(tx *types.Transaction) bool {
	if interval, ok := d.cfg.buyInterval(tx); ok {
		bucket := d.buys[interval]
		if bucket == nil {
			bucket = make([]*types.Transaction, 0, 4) // a set is typically followed by a few buys
		}
		d.buys[interval] = append(bucket, tx)
	}
	fpv, mark, ok := d.cfg.classifySet(tx)
	if !ok {
		return false
	}
	if _, dup := d.sets[tx]; dup {
		return false // this instance is already a vertex; the first insertion stands
	}
	d.seq++
	e := &entry{tx: tx, fpv: fpv, mark: mark, seq: d.seq}
	d.sets[tx] = e
	lst := d.dups[mark]
	d.dups[mark] = append(lst, e) // new seq is maximal: list stays sorted
	if len(lst) > 0 {
		return false // an inactive duplicate: the adjacency is untouched
	}
	d.activate(e) // first holder of this mark becomes active
	return true
}

// delete removes the instance insert was given from the DAG or the buy
// index and reports whether the series may have changed. When the active
// holder of a mark leaves, the earliest surviving duplicate (if any)
// takes its place at its own arrival position — the holder a fill of the
// remaining transactions would select.
func (d *dag) delete(tx *types.Transaction) bool {
	if interval, ok := d.cfg.buyInterval(tx); ok {
		// slices.Delete zeroes the vacated slot, so the bucket does not
		// pin the removed instance.
		lst := d.buys[interval]
		if i := slices.Index(lst, tx); i >= 0 {
			lst = slices.Delete(lst, i, i+1)
		}
		if len(lst) == 0 {
			delete(d.buys, interval)
		} else {
			d.buys[interval] = lst
		}
	}
	e, ok := d.sets[tx]
	if !ok {
		return false
	}
	delete(d.sets, tx)
	lst := d.dups[e.mark]
	idx := slices.Index(lst, e)
	if idx < 0 {
		return true // unreachable: sets and dups are kept in lockstep
	}
	lst = slices.Delete(lst, idx, idx+1)
	if len(lst) == 0 {
		delete(d.dups, e.mark)
	} else {
		d.dups[e.mark] = lst
	}
	if idx != 0 {
		return false // an inactive duplicate left: the adjacency is untouched
	}
	d.deactivate(e)
	if len(lst) > 0 {
		d.activate(lst[0])
	}
	return true
}

// activate inserts e into its parent's child list at the position its
// arrival order dictates.
func (d *dag) activate(e *entry) {
	lst := d.kids[e.fpv.PrevMark]
	i := sort.Search(len(lst), func(i int) bool { return lst[i].seq > e.seq })
	d.kids[e.fpv.PrevMark] = slices.Insert(lst, i, e)
}

func (d *dag) deactivate(e *entry) {
	lst := d.kids[e.fpv.PrevMark]
	if i := slices.Index(lst, e); i >= 0 {
		lst = slices.Delete(lst, i, i+1)
	}
	if len(lst) == 0 {
		delete(d.kids, e.fpv.PrevMark)
	} else {
		d.kids[e.fpv.PrevMark] = lst
	}
}

// depthPending marks a vertex currently on the DFS stack; edges into it
// are back edges from adversarial mark collisions and are skipped, which
// makes termination unconditional (Lemma 2 only covers honest marks).
const depthPending = -1

// dagFrame is one explicit-stack DFS frame of depth.
type dagFrame struct {
	n     *entry
	kids  []*entry // n's children, resolved once when the frame is pushed
	child int
	best  int
}

// depth computes the longest-path vertex count from root, memoizing
// every reached vertex into d.depths. The memo is shared across roots, so
// evaluating all head candidates is O(V+E) instead of the exponential
// path-copying recursion of the literal Algorithm 3. A vertex listed as
// its own child (a forged mark) is ignored.
func (d *dag) depth(root *entry) int {
	if deep, ok := d.depths[root]; ok && deep != depthPending {
		return deep
	}
	stack := append(d.stack[:0], dagFrame{n: root, kids: d.kids[root.mark]})
	d.depths[root] = depthPending
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.child < len(f.kids) {
			c := f.kids[f.child]
			f.child++
			if c == f.n {
				continue
			}
			deep, seen := d.depths[c]
			switch {
			case seen && deep == depthPending:
				// back edge (mark cycle): skip
			case seen:
				f.best = max(f.best, deep)
			default:
				d.depths[c] = depthPending
				stack = append(stack, dagFrame{n: c, kids: d.kids[c.mark]})
			}
			continue
		}
		deep := f.best + 1
		d.depths[f.n] = deep
		stack = stack[:len(stack)-1]
		if len(stack) > 0 {
			p := &stack[len(stack)-1]
			p.best = max(p.best, deep)
		}
	}
	d.stack = stack
	return d.depths[root]
}

// walkSeries runs the fork choice (Algorithms 1 and 3): of the head
// candidates chained off the committed mark, the first that roots a
// deepest branch; it visits that branch head to tail — at a fork the
// earliest-arrived deepest child, the branch the recursive DEEPESTBRANCH
// returns — and nothing when there is no candidate. No hashing, no
// parsing, no per-vertex allocation: the scratch tables are reused
// across walks.
func (d *dag) walkSeries(committedMark types.Word, visit func(*entry)) {
	// The scratch tables keep their capacity across walks but must not
	// keep their contents: stale *entry pointers (in the depth memo and
	// beyond the live length of the buffers) would pin removed
	// transactions in memory until the next walk.
	defer func() {
		clear(d.depths)
		clear(d.heads[:cap(d.heads)])
		clear(d.stack[:cap(d.stack)])
	}()

	// Every candidate chains off the committed mark, so that mark's child
	// list is the candidate pool, in arrival order: the head-flagged, and
	// under ExtendHeads the chain-flagged too unless their parent — the
	// holder of the committed mark — is pending (a forged self-parent does
	// not count).
	heads := d.heads[:0]
	parent := d.dups[committedMark]
	for _, e := range d.kids[committedMark] {
		orphan := len(parent) == 0 || parent[0] == e
		if e.fpv.Flag == types.FlagHead || d.cfg.ExtendHeads && orphan {
			heads = append(heads, e)
		}
	}
	d.heads = heads[:0]

	var next *entry
	deepest := 0
	for _, h := range heads {
		if n := d.depth(h); n > deepest {
			next, deepest = h, n
		}
	}
	for next != nil {
		e := next
		visit(e)
		// A mark cycle can leave no child one shallower: the branch is
		// truncated there (adversarial marks only).
		next = nil
		if want := d.depths[e] - 1; want > 0 {
			for _, c := range d.kids[e.mark] {
				if c != e && d.depths[c] == want {
					next = c
					break
				}
			}
		}
	}
}

// view is the READ-UNCOMMITTED view (Algorithm 1): the series tail, or
// the committed state under the head flag when the series is empty — the
// caller's transaction will then be the first of the block (line 5,
// "specialValue").
func (d *dag) view(committed types.AMV) View {
	// Depth is the walked series length, not the memoized depth: the two
	// differ only when a mark cycle truncates the walk.
	var tail *entry
	length := 0
	d.walkSeries(committed.Mark, func(e *entry) { tail = e; length++ })
	if tail == nil {
		return View{AMV: committed, Flag: types.FlagHead, Depth: 0}
	}
	return View{
		AMV:   types.AMV{Address: tail.tx.From, Mark: tail.mark, Value: tail.fpv.Value},
		Flag:  types.FlagChain,
		Depth: length,
	}
}

// series returns the series head to tail, nil when it is empty.
func (d *dag) series(committedMark types.Word) (series []*Node) {
	d.walkSeries(committedMark, func(e *entry) {
		series = append(series, &Node{Tx: e.tx, FPV: e.fpv, Mark: e.mark})
	})
	return series
}

// semanticPrefix is the semantic miner's interleaving (paper §V-C): the
// buys bound to the committed interval execute before any pending set,
// then each set of the series is followed by the buys that depend on its
// mark. Only an adversarial mark cycle leads a series back onto the
// committed mark; that bucket is already placed and is not scheduled
// twice: the miner counts on a prefix of distinct pool transactions.
func (d *dag) semanticPrefix(committedMark types.Word) []*types.Transaction {
	out := slices.Clone(d.buys[committedMark])
	d.walkSeries(committedMark, func(e *entry) {
		out = append(out, e.tx)
		if e.mark != committedMark {
			out = append(out, d.buys[e.mark]...)
		}
	})
	return out
}
