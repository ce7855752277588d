package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"sereth/internal/p2p"
	"sereth/internal/store"
	"sereth/internal/types"
)

// Span names are the layer boundaries the benchmark can see from
// outside: calls it makes into a module's public functions, and calls
// the node makes into a handler, store or HTTP handler the benchmark
// handed it. Spans inside internal/ are a later change.
type spanName uint8

const (
	spRPCView     spanName = iota // rpc.Client.View round trip
	spRPCSend                     // rpc.Client.SendRawTransaction round trip
	spRPCServer                   // rpc.Server.ServeHTTP (either method)
	spSubmit                      // Node.SubmitTx / SubmitTxs, in-process
	spViewAMV                     // Node.ViewAMV, in-process
	spDeliver                     // Network.AdvanceTo
	spHandleTx                    // a peer's HandleTx / HandleTxs
	spHandleBlock                 // a peer's HandleBlock (validate, adopt, persist)
	spMine                        // Node.MineAndBroadcast
	spStoreWrite                  // Store.Put / Store.Write
	spStoreSync                   // Syncer.Sync
	spSign                        // the benchmark's own client: sign + encode
	spCheck                       // the benchmark's own output checks
	spProbe                       // shadow calls of the traced run (not on the path)
	spSimGeth                     // sim.Run, geth_unmodified line
	spSimSereth                   // sim.Run, sereth_client line
	spSimSemantic                 // sim.Run, semantic_mining line
	spanNames
)

var spanLabel = [spanNames]string{
	"rpc.view", "rpc.send", "rpc.server", "node.submit", "raa.view_amv",
	"p2p.deliver", "p2p.handle_tx", "p2p.handle_block", "chain.mine",
	"store.write", "store.sync", "client.sign", "bench.check", "trace.probes",
	"sim.run.geth", "sim.run.sereth", "sim.run.semantic",
}

// span is pointer-free so the span slice is never scanned by the GC.
type span struct {
	name   spanName
	parent int32  // index of the span that caused this one, -1 at the root
	id     uint32 // transaction or block number the span belongs to
	start  int64  // ns since the tracer's epoch
	end    int64
}

// tracer keeps spans in memory. The workloads are closed loops with one
// request in flight, so one stack of open spans gives every span its
// cause — including rpc.server spans, which run on the HTTP server's
// goroutine while the driver is blocked inside rpc.view / rpc.send. A nil
// tracer is the untraced run: begin and end return at once.
type tracer struct {
	mu    sync.Mutex
	on    bool // spans are kept only while the timed phase runs
	epoch time.Time
	spans []span
	open  []int32
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// record switches span keeping on or off; a nil tracer ignores it.
func (t *tracer) record(on bool) {
	if t != nil {
		t.mu.Lock()
		t.on = on
		t.mu.Unlock()
	}
}

func (t *tracer) begin(name spanName, id int) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, id: uint32(id), start: int64(time.Since(t.epoch))})
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = now
	t.open = t.open[:len(t.open)-1]
}

// layerRow is one line of the layer table.
type layerRow struct {
	name          string
	calls         int
	totalNs       int64 // Σ span durations
	selfNs        int64 // Σ (duration − children)
	selfUsPerTx   float64
	shareOfWallPc float64
}

// layers folds the spans into per-name totals. A span's self time is its
// duration minus the part its children cover.
func (t *tracer) layers(wall time.Duration, txs int) (rows []layerRow, sumSelfNs int64) {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	var agg [spanNames]layerRow
	for i, s := range t.spans {
		r := &agg[s.name]
		r.calls++
		r.totalNs += s.end - s.start
		r.selfNs += self[i]
	}
	for n := range agg {
		r := agg[n]
		if r.calls == 0 {
			continue
		}
		r.name = spanLabel[n]
		r.selfUsPerTx = float64(r.selfNs) / 1e3 / float64(txs)
		r.shareOfWallPc = 100 * float64(r.selfNs) / float64(wall.Nanoseconds())
		rows = append(rows, r)
		sumSelfNs += r.selfNs
	}
	return rows, sumSelfNs
}

// malformed returns a description of the first span that is not closed,
// or not inside its parent; "" when the tree is well-formed.
func (t *tracer) malformed() string {
	if len(t.open) != 0 {
		return fmt.Sprintf("%d spans left open", len(t.open))
	}
	for i, s := range t.spans {
		if s.end < s.start {
			return fmt.Sprintf("span %d (%s) ends before it starts", i, spanLabel[s.name])
		}
		if s.parent < 0 {
			continue
		}
		if s.parent >= int32(i) {
			return fmt.Sprintf("span %d (%s) precedes its parent", i, spanLabel[s.name])
		}
		if p := t.spans[s.parent]; s.start < p.start || s.end > p.end {
			return fmt.Sprintf("span %d (%s) is not inside its parent %s", i, spanLabel[s.name], spanLabel[p.name])
		}
	}
	return ""
}

// writeSpans dumps the spans as a JSON array of
// [name, start_ns, end_ns, parent, id] rows.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	rows := make([][5]any, len(t.spans))
	for i, s := range t.spans {
		rows[i] = [5]any{spanLabel[s.name], s.start, s.end, s.parent, s.id}
	}
	if err := enc.Encode(rows); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// tracedPeer times the deliveries the network makes into a node. It is
// Join-ed over the node (Join replaces the handler under that id).
type tracedPeer struct {
	inner interface {
		p2p.Handler
		p2p.TxBatchHandler
	}
	tr *tracer
}

func (p tracedPeer) HandleTx(from p2p.PeerID, tx *types.Transaction) {
	s := p.tr.begin(spHandleTx, 0)
	p.inner.HandleTx(from, tx)
	p.tr.end(s)
}

func (p tracedPeer) HandleTxs(from p2p.PeerID, txs []*types.Transaction) {
	s := p.tr.begin(spHandleTx, 0)
	p.inner.HandleTxs(from, txs)
	p.tr.end(s)
}

func (p tracedPeer) HandleBlock(from p2p.PeerID, b *types.Block) {
	s := p.tr.begin(spHandleBlock, int(b.Number()))
	p.inner.HandleBlock(from, b)
	p.tr.end(s)
}

func (p tracedPeer) HandleBlockRequest(from p2p.PeerID, n uint64) {
	p.inner.HandleBlockRequest(from, n)
}

// tracedStore times and counts what a node writes to its store during
// the timed phase. The embedded FileStore supplies Get, Close and
// Salvage.
type tracedStore struct {
	*store.FileStore
	tr     *tracer
	writes int
	syncs  int
	bytes  int
}

func (s *tracedStore) Put(key, value []byte) error {
	sp := s.tr.begin(spStoreWrite, 0)
	err := s.FileStore.Put(key, value)
	s.tr.end(sp)
	if sp >= 0 {
		s.writes++
		s.bytes += len(key) + len(value)
	}
	return err
}

func (s *tracedStore) Write(b *store.Batch) error {
	sp := s.tr.begin(spStoreWrite, 0)
	err := s.FileStore.Write(b)
	s.tr.end(sp)
	if sp >= 0 {
		s.writes++
		s.bytes += b.Size()
	}
	return err
}

func (s *tracedStore) Sync() error {
	sp := s.tr.begin(spStoreSync, 0)
	err := s.FileStore.Sync()
	s.tr.end(sp)
	if sp >= 0 {
		s.syncs++
	}
	return err
}

// tracedHandler times the rpc.Server from outside. The span closes when
// ServeHTTP returns, which is before net/http flushes the response, so
// it always lies inside the client's round-trip span.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := tr.begin(spRPCServer, 0)
		h.ServeHTTP(w, r)
		tr.end(s)
	})
}
