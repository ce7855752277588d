package hms

import (
	"slices"
	"sort"

	"sereth/internal/types"
)

// entry is one set transaction of the DAG. seq is its insertion
// position: the arrival order Algorithm 2's first-holder dedupe and
// Algorithm 3's head and child scans break ties by. v is the vertex of
// its mark, where its children are listed; it stays valid while the
// entry is in the DAG, because the entry is one of that vertex's holders.
type entry struct {
	tx   *types.Transaction
	fpv  types.FPV
	mark types.Word
	seq  uint64
	v    *vertex
}

// vertex is all the DAG knows under one mark, in three lists:
//   - holders: the sets that produce the mark, in seq order; [0] is the
//     active one, the first holder Algorithm 2's dedupe keeps;
//   - kids: the active sets whose previous mark it is, in seq order;
//   - buys: the buys that target the interval it opens, in arrival order.
//
// Inline backing covers the common case: the first holder's entry
// itself, one child and four buys, so an honest set costs the DAG one
// allocation and a buy none. The first slot is free when first.tx is
// nil. A vertex leaves the table when its three lists are empty, and
// waits on the dag's free list for the next mark.
type vertex struct {
	holders []*entry
	kids    []*entry
	buys    []*types.Transaction

	first  entry
	holder [1]*entry
	kid    [1]*entry
	buy    [4]*types.Transaction
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
	cfg      Config
	seq      uint64                        // insertions so far
	sets     map[*types.Transaction]*entry // every set, by the instance inserted
	vertices map[types.Word]*vertex        // every mark a set, a child or a buy names
	// free holds zeroed vertices that left the table, for vertexOf to
	// take before it allocates: settled transactions free as many
	// vertices as new ones need. It holds no more than the table does, so
	// an idle dag does not keep a past backlog's.
	free []*vertex

	depths map[*entry]int // walk scratch, cleared after each walk
	heads  []*entry       // walk scratch
	stack  []dagFrame     // walk scratch

	// excluded, during a semanticPrefix that takes senders out, are
	// those senders: the walk reads the dag as if their transactions
	// were not in it (see active).
	excluded map[types.Address]struct{}
}

// fill returns the DAG of pending, inserted in slice order.
func fill(cfg Config, pending []*types.Transaction) *dag {
	d := &dag{
		cfg:      cfg,
		sets:     make(map[*types.Transaction]*entry),
		vertices: make(map[types.Word]*vertex),
		depths:   make(map[*entry]int),
	}
	for _, tx := range pending {
		d.insert(tx)
	}
	return d
}

// vertexOf returns the vertex of mark, making it if there is none: a
// free one when there is one.
func (d *dag) vertexOf(mark types.Word) *vertex {
	v := d.vertices[mark]
	if v == nil {
		if n := len(d.free); n > 0 {
			v, d.free[n-1] = d.free[n-1], nil
			d.free = d.free[:n-1]
		} else {
			v = new(vertex)
		}
		v.holders, v.kids, v.buys = v.holder[:0], v.kid[:0], v.buy[:0]
		d.vertices[mark] = v
	}
	return v
}

// release drops v, the vertex of mark, from the table once its three
// lists are empty, and zeroes it onto the free list. A vertex is freed
// once: on a mark cycle the set's delete releases the vertex its
// deactivate released, which the table no longer names. And not while
// its inline first entry is still referenced, as it is until delete
// clears it.
func (d *dag) release(mark types.Word, v *vertex) {
	if len(v.holders) != 0 || len(v.kids) != 0 || len(v.buys) != 0 || d.vertices[mark] != v {
		return
	}
	delete(d.vertices, mark)
	if v.first.tx == nil && len(d.free) < len(d.vertices) {
		*v = vertex{}
		d.free = append(d.free, v)
	}
}

// insert admits one transaction into the DAG: a set as a holder of its
// mark, a buy into the list of the interval it targets. It reports
// whether the series may have changed: false for transactions the view
// does not depend on (foreign contracts, buys, rejected flags, a mark
// that already has a holder).
func (d *dag) insert(tx *types.Transaction) bool {
	if interval, ok := d.cfg.buyInterval(tx); ok {
		v := d.vertexOf(interval)
		v.buys = append(v.buys, tx)
	}
	fpv, mark, ok := d.cfg.classifySet(tx)
	if !ok {
		return false
	}
	if _, dup := d.sets[tx]; dup {
		return false // this instance is already a holder; the first insertion stands
	}
	d.seq++
	v := d.vertexOf(mark)
	e := &v.first
	if e.tx != nil {
		e = new(entry) // a duplicate, or a holder beside one that left
	}
	*e = entry{tx: tx, fpv: fpv, mark: mark, seq: d.seq, v: v}
	d.sets[tx] = e
	v.holders = append(v.holders, e) // new seq is maximal: the list stays sorted
	if len(v.holders) > 1 {
		return false // an inactive duplicate: the adjacency is untouched
	}
	d.activate(e) // first holder of this mark becomes active
	return true
}

// delete removes the instance insert was given from the DAG and reports
// whether the series may have changed. When the active holder of a mark
// leaves, the earliest surviving duplicate (if any) takes its place at
// its own arrival position — the holder a fill of the remaining
// transactions would select. slices.Delete zeroes every vacated slot, and
// a freed first slot is zeroed too, so no list pins a removed instance.
func (d *dag) delete(tx *types.Transaction) bool {
	if interval, ok := d.cfg.buyInterval(tx); ok {
		if v := d.vertices[interval]; v != nil {
			if i := slices.Index(v.buys, tx); i >= 0 {
				v.buys = slices.Delete(v.buys, i, i+1)
				d.release(interval, v)
			}
		}
	}
	e, ok := d.sets[tx]
	if !ok {
		return false
	}
	delete(d.sets, tx)
	v, mark := e.v, e.mark
	idx := slices.Index(v.holders, e)
	v.holders = slices.Delete(v.holders, idx, idx+1)
	if idx == 0 {
		d.deactivate(e)
		if len(v.holders) > 0 {
			d.activate(v.holders[0])
		}
	}
	if e == &v.first {
		v.first = entry{}
	}
	d.release(mark, v)
	return idx == 0 // an inactive duplicate leaving touches no adjacency
}

// activate inserts e into its parent's child list at the position its
// arrival order dictates.
func (d *dag) activate(e *entry) {
	p := d.vertexOf(e.fpv.PrevMark)
	i := sort.Search(len(p.kids), func(i int) bool { return p.kids[i].seq > e.seq })
	p.kids = slices.Insert(p.kids, i, e)
}

func (d *dag) deactivate(e *entry) {
	p := d.vertices[e.fpv.PrevMark]
	if i := slices.Index(p.kids, e); i >= 0 {
		p.kids = slices.Delete(p.kids, i, i+1)
	}
	d.release(e.fpv.PrevMark, p)
}

// active returns the entry that heads e's mark in the dag read without
// the excluded senders' transactions, for an e that heads it in the dag
// (a child list's): e itself, or the earliest holder beside it that is
// not excluded, which a fill without the excluded transactions would
// have kept and listed in e's place — nil when there is none. Every
// holder of a mark has e's previous mark, the mark being its digest.
func (d *dag) active(e *entry) *entry {
	if len(d.excluded) == 0 {
		return e
	}
	return d.firstHolder(e.v)
}

// firstHolder returns v's earliest holder that is not excluded, nil when
// there is none.
func (d *dag) firstHolder(v *vertex) *entry {
	for _, h := range v.holders {
		if _, out := d.excluded[h.tx.From]; !out {
			return h
		}
	}
	return nil
}

// appendBuys appends v's buys that are not excluded, in arrival order.
func (d *dag) appendBuys(out []*types.Transaction, v *vertex) []*types.Transaction {
	if len(d.excluded) == 0 {
		return append(out, v.buys...)
	}
	for _, tx := range v.buys {
		if _, skip := d.excluded[tx.From]; !skip {
			out = append(out, tx)
		}
	}
	return out
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
	stack := append(d.stack[:0], dagFrame{n: root, kids: root.v.kids})
	d.depths[root] = depthPending
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.child < len(f.kids) {
			c := d.active(f.kids[f.child])
			f.child++
			if c == nil || c == f.n {
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
				stack = append(stack, dagFrame{n: c, kids: c.v.kids})
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
// candidates chained off the committed mark, the earliest-arrived that
// roots a deepest branch; it visits that branch head to tail — at a fork
// the earliest-arrived deepest child, the branch the recursive
// DEEPESTBRANCH returns — and nothing when there is no candidate. No
// hashing, no parsing, no per-vertex allocation: the scratch tables are
// reused across walks. Arrival is compared by seq, not by list position:
// a holder active in an excluded one's place sits at the excluded one's.
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
	if root := d.vertices[committedMark]; root != nil {
		holder := d.firstHolder(root)
		for _, e := range root.kids {
			if e = d.active(e); e == nil {
				continue
			}
			orphan := holder == nil || holder == e
			if e.fpv.Flag == types.FlagHead || d.cfg.ExtendHeads && orphan {
				heads = append(heads, e)
			}
		}
	}
	d.heads = heads[:0]

	var next *entry
	deepest := 0
	for _, h := range heads {
		if n := d.depth(h); n > deepest || n == deepest && n > 0 && h.seq < next.seq {
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
			for _, c := range e.v.kids {
				if c = d.active(c); c != nil && c != e && d.depths[c] == want && (next == nil || c.seq < next.seq) {
					next = c
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

// semanticPrefix appends the semantic miner's interleaving (paper §V-C)
// to out: the buys bound to the committed interval execute before any
// pending set, then each set of the series is followed by the buys that
// depend on its mark. Only an adversarial mark cycle leads a series back
// onto the committed mark; that bucket is already placed and is not
// scheduled twice: the miner counts on a prefix of distinct pool
// transactions. The dag is read without the transactions of the
// excluded senders: the prefix is the one a dag filled without them
// has.
func (d *dag) semanticPrefix(out []*types.Transaction, committedMark types.Word, excluded map[types.Address]struct{}) []*types.Transaction {
	d.excluded = excluded
	defer func() { d.excluded = nil }()
	if v := d.vertices[committedMark]; v != nil {
		out = d.appendBuys(out, v)
	}
	d.walkSeries(committedMark, func(e *entry) {
		out = append(out, e.tx)
		if e.mark != committedMark {
			out = d.appendBuys(out, e.v)
		}
	})
	return out
}
