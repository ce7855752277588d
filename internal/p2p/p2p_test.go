package p2p

import (
	"sync"
	"testing"

	"sereth/internal/types"
)

type recorder struct {
	txs    []*types.Transaction
	blocks []*types.Block
	// relay, when set, re-broadcasts received txs (cascade test).
	relay *Network
	id    PeerID
}

func (r *recorder) HandleTx(from PeerID, tx *types.Transaction) {
	r.txs = append(r.txs, tx)
	if r.relay != nil {
		r.relay.BroadcastTx(r.id, tx)
		r.relay = nil // relay once
	}
}

func (r *recorder) HandleBlock(from PeerID, b *types.Block) {
	r.blocks = append(r.blocks, b)
}

func sampleTx(n uint64) *types.Transaction {
	return &types.Transaction{Nonce: n, GasLimit: 1, Data: []byte{byte(n)}}
}

func TestBroadcastExcludesSender(t *testing.T) {
	net := NewNetwork(Config{LatencyMs: 10})
	a, b, c := &recorder{}, &recorder{}, &recorder{}
	net.Join(1, a)
	net.Join(2, b)
	net.Join(3, c)

	net.BroadcastTx(1, sampleTx(7))
	net.AdvanceTo(9)
	if len(b.txs) != 0 {
		t.Error("delivered before latency elapsed")
	}
	net.AdvanceTo(10)
	if len(a.txs) != 0 {
		t.Error("sender received its own broadcast")
	}
	if len(b.txs) != 1 || len(c.txs) != 1 {
		t.Errorf("deliveries: b=%d c=%d", len(b.txs), len(c.txs))
	}
}

func TestZeroLatencyDeliversAtSameTick(t *testing.T) {
	net := NewNetwork(Config{LatencyMs: 0})
	a, b := &recorder{}, &recorder{}
	net.Join(1, a)
	net.Join(2, b)
	net.BroadcastTx(1, sampleTx(1))
	net.AdvanceTo(0)
	if len(b.txs) != 1 {
		t.Error("zero-latency message not delivered at t=0")
	}
}

func TestCascadedBroadcast(t *testing.T) {
	// b relays the tx it receives; c must get both copies within the
	// same AdvanceTo window.
	net := NewNetwork(Config{LatencyMs: 5})
	a, c := &recorder{}, &recorder{}
	b := &recorder{relay: net, id: 2}
	net.Join(1, a)
	net.Join(2, b)
	net.Join(3, c)

	net.BroadcastTx(1, sampleTx(1))
	net.AdvanceTo(20)
	if len(c.txs) != 2 {
		t.Errorf("c received %d copies, want 2 (direct + relayed)", len(c.txs))
	}
}

func TestDeterministicDeliveryOrder(t *testing.T) {
	run := func() []uint64 {
		net := NewNetwork(Config{LatencyMs: 3, Seed: 9})
		var order []uint64
		sink := &orderSink{order: &order}
		net.Join(1, &recorder{})
		net.Join(2, sink)
		for i := uint64(0); i < 20; i++ {
			net.BroadcastTx(1, sampleTx(i))
		}
		net.AdvanceTo(100)
		return order
	}
	a, b := run(), run()
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("lens %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("delivery order not deterministic")
		}
	}
}

type orderSink struct{ order *[]uint64 }

func (o *orderSink) HandleTx(_ PeerID, tx *types.Transaction) {
	*o.order = append(*o.order, tx.Nonce)
}
func (o *orderSink) HandleBlock(PeerID, *types.Block)  {}
func (o *orderSink) HandleBlockRequest(PeerID, uint64) {}

func TestDropRate(t *testing.T) {
	net := NewNetwork(Config{LatencyMs: 1, DropRate: 1.0, Seed: 1})
	a, b := &recorder{}, &recorder{}
	net.Join(1, a)
	net.Join(2, b)
	net.BroadcastTx(1, sampleTx(1))
	net.AdvanceTo(100)
	if len(b.txs) != 0 {
		t.Error("message delivered despite 100% drop rate")
	}
	sent, dropped := net.Stats()
	if sent != 1 || dropped != 1 {
		t.Errorf("stats: sent=%d dropped=%d", sent, dropped)
	}
}

func TestPartialDropRateDeterministic(t *testing.T) {
	count := func(seed int64) int {
		net := NewNetwork(Config{LatencyMs: 1, DropRate: 0.5, Seed: seed})
		b := &recorder{}
		net.Join(1, &recorder{})
		net.Join(2, b)
		for i := uint64(0); i < 100; i++ {
			net.BroadcastTx(1, sampleTx(i))
		}
		net.AdvanceTo(1000)
		return len(b.txs)
	}
	if count(7) != count(7) {
		t.Error("same seed, different loss pattern")
	}
	got := count(7)
	if got < 20 || got > 80 {
		t.Errorf("drop rate 0.5 delivered %d/100", got)
	}
}

func TestBlockBroadcast(t *testing.T) {
	net := NewNetwork(Config{LatencyMs: 2})
	a, b := &recorder{}, &recorder{}
	net.Join(1, a)
	net.Join(2, b)
	block := &types.Block{Header: &types.Header{Number: 1}}
	net.BroadcastBlock(1, block)
	net.AdvanceTo(2)
	if len(b.blocks) != 1 || b.blocks[0].Number() != 1 {
		t.Error("block not delivered")
	}
}

func TestDrain(t *testing.T) {
	net := NewNetwork(Config{LatencyMs: 1000})
	b := &recorder{}
	net.Join(1, &recorder{})
	net.Join(2, b)
	net.BroadcastTx(1, sampleTx(1))
	net.Drain()
	if len(b.txs) != 1 {
		t.Error("Drain left messages queued")
	}
	if net.Now() < 1000 {
		t.Error("Drain did not advance the clock")
	}
}

func TestTxCopyIsolation(t *testing.T) {
	net := NewNetwork(Config{})
	b := &recorder{}
	net.Join(1, &recorder{})
	net.Join(2, b)
	tx := sampleTx(1)
	net.BroadcastTx(1, tx)
	tx.Data[0] = 0xff // sender mutates after broadcast
	net.Drain()
	if b.txs[0].Data[0] == 0xff {
		t.Error("network shares the sender's transaction buffer")
	}
}

func TestPeersSorted(t *testing.T) {
	net := NewNetwork(Config{})
	net.Join(3, &recorder{})
	net.Join(1, &recorder{})
	net.Join(2, &recorder{})
	ids := net.peers.ids // kept ascending: gossip fans out in this order
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Errorf("peers: %v", ids)
	}
}

func (r *recorder) HandleBlockRequest(PeerID, uint64) {}

func TestJoinReplacesHandler(t *testing.T) {
	net := NewNetwork(Config{})
	old, repl, b := &recorder{}, &recorder{}, &recorder{}
	net.Join(1, old)
	net.Join(2, b)
	net.Join(1, repl)
	if got := net.peers.ids; len(got) != 2 {
		t.Fatalf("peers after replace: %v", got)
	}
	net.BroadcastTx(2, sampleTx(1))
	net.Drain()
	if len(old.txs) != 0 || len(repl.txs) != 1 {
		t.Errorf("replaced handler: old=%d new=%d", len(old.txs), len(repl.txs))
	}
}

func TestBroadcastSharesMemoizedPayload(t *testing.T) {
	// A memoized (pool-admitted) transaction is immutable, so the
	// network must deliver the same instance to every recipient: one
	// payload per gossip, not one copy per peer.
	net := NewNetwork(Config{})
	b, c := &recorder{}, &recorder{}
	net.Join(1, &recorder{})
	net.Join(2, b)
	net.Join(3, c)
	tx := sampleTx(1).Memoize()
	net.BroadcastTx(1, tx)
	net.Drain()
	if b.txs[0] != tx || c.txs[0] != tx {
		t.Error("memoized broadcast was copied per recipient")
	}
}

func TestLongLatencyWheelWrap(t *testing.T) {
	// Latency far beyond the wheel size exercises slot aliasing across
	// revolutions.
	net := NewNetwork(Config{LatencyMs: 3 * wheelSize})
	b := &recorder{}
	net.Join(1, &recorder{})
	net.Join(2, b)
	net.BroadcastTx(1, sampleTx(1))
	net.AdvanceTo(100) // also schedules a second gossip mid-flight
	net.BroadcastTx(1, sampleTx(2))
	net.AdvanceTo(3*wheelSize - 1)
	if len(b.txs) != 0 {
		t.Fatalf("deliveries before due: %d", len(b.txs))
	}
	net.AdvanceTo(3 * wheelSize)
	if len(b.txs) != 1 {
		t.Fatalf("deliveries at first due instant: %d", len(b.txs))
	}
	net.AdvanceTo(3*wheelSize + 100)
	if len(b.txs) != 2 {
		t.Fatalf("deliveries after due: %d", len(b.txs))
	}
	if b.txs[0].Nonce != 1 || b.txs[1].Nonce != 2 {
		t.Errorf("order: %d, %d", b.txs[0].Nonce, b.txs[1].Nonce)
	}
}

func TestRingRelayReachesAllOnce(t *testing.T) {
	net := NewNetwork(Config{LatencyMs: 10, Topology: Ring()})
	peers := map[PeerID]*recorder{}
	for id := PeerID(1); id <= 5; id++ {
		r := &recorder{}
		peers[id] = r
		net.Join(id, r)
	}
	net.BroadcastTx(1, sampleTx(7))
	net.AdvanceTo(10)
	// One hop: only the ring neighbors of 1.
	if len(peers[2].txs) != 1 || len(peers[5].txs) != 1 {
		t.Fatalf("one-hop deliveries: 2=%d 5=%d", len(peers[2].txs), len(peers[5].txs))
	}
	if len(peers[3].txs) != 0 || len(peers[4].txs) != 0 {
		t.Fatal("two-hop peers reached in one hop")
	}
	net.AdvanceTo(20)
	for id := PeerID(2); id <= 5; id++ {
		if len(peers[id].txs) != 1 {
			t.Errorf("peer %d received %d copies, want exactly 1", id, len(peers[id].txs))
		}
	}
	if len(peers[1].txs) != 0 {
		t.Error("origin received its own gossip back")
	}
}

func TestRingBlockRelay(t *testing.T) {
	net := NewNetwork(Config{LatencyMs: 5, Topology: Ring()})
	peers := map[PeerID]*recorder{}
	for id := PeerID(1); id <= 6; id++ {
		r := &recorder{}
		peers[id] = r
		net.Join(id, r)
	}
	net.BroadcastBlock(3, &types.Block{Header: &types.Header{Number: 9}})
	net.Drain()
	for id, r := range peers {
		want := 1
		if id == 3 {
			want = 0
		}
		if len(r.blocks) != want {
			t.Errorf("peer %d: %d blocks, want %d", id, len(r.blocks), want)
		}
	}
}

func TestRandomRegularReachesAllDeterministically(t *testing.T) {
	run := func() map[PeerID]int {
		net := NewNetwork(Config{LatencyMs: 7, Topology: RandomRegular(4, 99)})
		peers := map[PeerID]*recorder{}
		for id := PeerID(1); id <= 20; id++ {
			r := &recorder{}
			peers[id] = r
			net.Join(id, r)
		}
		net.BroadcastTx(5, sampleTx(1))
		net.Drain()
		counts := map[PeerID]int{}
		for id, r := range peers {
			counts[id] = len(r.txs)
		}
		return counts
	}
	a, b := run(), run()
	for id := PeerID(1); id <= 20; id++ {
		want := 1
		if id == 5 {
			want = 0
		}
		if a[id] != want {
			t.Errorf("peer %d received %d copies, want %d", id, a[id], want)
		}
		if a[id] != b[id] {
			t.Errorf("peer %d: non-deterministic delivery (%d vs %d)", id, a[id], b[id])
		}
	}
}

func TestTopologyAdjacencyShape(t *testing.T) {
	peers := []PeerID{1, 2, 3, 4, 5, 6, 7, 8}
	mesh := Mesh().Build(peers)
	for _, p := range peers {
		if len(mesh[p]) != len(peers)-1 {
			t.Fatalf("mesh degree of %d = %d", p, len(mesh[p]))
		}
	}
	ring := Ring().Build(peers)
	for _, p := range peers {
		if len(ring[p]) != 2 {
			t.Fatalf("ring degree of %d = %d", p, len(ring[p]))
		}
	}
	reg := RandomRegular(4, 1).Build(peers)
	for _, p := range peers {
		if len(reg[p]) < 2 || len(reg[p]) > 4 {
			t.Fatalf("dregular degree of %d = %d", p, len(reg[p]))
		}
		for _, q := range reg[p] {
			found := false
			for _, back := range reg[q] {
				if back == p {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", p, q)
			}
		}
	}
}

func TestParseTopology(t *testing.T) {
	for name, want := range map[string]string{"": "mesh", "mesh": "mesh", "ring": "ring", "dregular": "dregular-4"} {
		topo, err := ParseTopology(name, 0, 1)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if topo.Name() != want {
			t.Errorf("%q resolved to %q", name, topo.Name())
		}
	}
	if _, err := ParseTopology("torus", 0, 1); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestTraceRecordsDeliveries(t *testing.T) {
	net := NewNetwork(Config{LatencyMs: 4})
	var trace []TraceEvent
	net.Trace(func(e TraceEvent) { trace = append(trace, e) })
	net.Join(1, &recorder{})
	net.Join(2, &recorder{})
	net.Join(3, &recorder{})
	net.BroadcastTx(1, sampleTx(1))
	net.Drain()
	if len(trace) != 2 {
		t.Fatalf("trace length %d", len(trace))
	}
	if trace[0].To != 2 || trace[1].To != 3 || trace[0].At != 4 || trace[0].Kind != MsgTx {
		t.Errorf("trace: %+v", trace)
	}
}

// TestConcurrentBroadcastAndAdvance exercises the locking under -race:
// broadcasters, unicast senders and the advancing goroutine run
// concurrently.
func TestConcurrentBroadcastAndAdvance(t *testing.T) {
	net := NewNetwork(Config{LatencyMs: 2})
	for id := PeerID(1); id <= 4; id++ {
		net.Join(id, &orderSink{order: new([]uint64)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				net.BroadcastTx(PeerID(g+1), sampleTx(uint64(g*1000+i)))
				if i%50 == 0 {
					net.BroadcastBlock(PeerID(g+1), &types.Block{Header: &types.Header{Number: uint64(i)}})
					net.SendBlock(PeerID(g+1), 4, &types.Block{Header: &types.Header{Number: uint64(i)}})
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tick := uint64(1); tick <= 100; tick++ {
			net.AdvanceTo(tick)
			net.Stats()
		}
	}()
	wg.Wait()
	net.Drain()
	sent, _ := net.Stats()
	if sent == 0 {
		t.Error("no traffic recorded")
	}
}

// batchRecorder implements TxBatchHandler: batched envelopes arrive as
// one HandleTxs call instead of per-tx fallbacks.
type batchRecorder struct {
	recorder
	batches [][]*types.Transaction
}

func (r *batchRecorder) HandleTxs(from PeerID, txs []*types.Transaction) {
	r.batches = append(r.batches, txs)
	r.txs = append(r.txs, txs...)
}

func TestBroadcastTxsBatchAndFallback(t *testing.T) {
	net := NewNetwork(Config{LatencyMs: 5})
	plain, batch := &recorder{}, &batchRecorder{}
	net.Join(1, &recorder{})
	net.Join(2, plain)
	net.Join(3, batch)

	txs := []*types.Transaction{sampleTx(1), sampleTx(2), sampleTx(3)}
	net.BroadcastTxs(1, txs)
	net.AdvanceTo(5)

	// The batch-aware peer got ONE call carrying the whole batch.
	if len(batch.batches) != 1 || len(batch.batches[0]) != 3 {
		t.Fatalf("batch peer saw %d calls", len(batch.batches))
	}
	// The plain peer got the per-tx fallback, same payloads, same order.
	if len(plain.txs) != 3 {
		t.Fatalf("fallback peer saw %d txs", len(plain.txs))
	}
	for i := range txs {
		if plain.txs[i].Hash() != txs[i].Hash() || batch.txs[i].Hash() != txs[i].Hash() {
			t.Errorf("delivery %d diverges from submission order", i)
		}
	}
	// Both recipients share ONE frozen instance per tx — no per-recipient
	// copies.
	for i := range txs {
		if plain.txs[i] != batch.txs[i] {
			t.Errorf("tx %d copied per recipient", i)
		}
		if !plain.txs[i].Memoized() {
			t.Errorf("tx %d delivered unmemoized", i)
		}
	}
}

func TestBroadcastTxsSingletonDegradesToTx(t *testing.T) {
	net := NewNetwork(Config{LatencyMs: 1})
	batch := &batchRecorder{}
	net.Join(1, &recorder{})
	net.Join(2, batch)
	net.BroadcastTxs(1, []*types.Transaction{sampleTx(9)})
	net.BroadcastTxs(1, nil)
	net.Drain()
	if len(batch.batches) != 0 {
		t.Error("single-tx batch did not degrade to a plain tx gossip")
	}
	if len(batch.txs) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(batch.txs))
	}
}

func TestBroadcastTxsRelaysOnceOnMultihop(t *testing.T) {
	// On a ring every peer must see the batch exactly once: the batch id
	// (keccak over member hashes) drives the same seen-cache dedup as
	// single-tx gossip.
	net := NewNetwork(Config{LatencyMs: 1, Topology: Ring()})
	const peers = 8
	sinks := make([]*batchRecorder, peers+1)
	for id := 1; id <= peers; id++ {
		sinks[id] = &batchRecorder{}
		net.Join(PeerID(id), sinks[id])
	}
	net.BroadcastTxs(1, []*types.Transaction{sampleTx(1), sampleTx(2)})
	net.Drain()
	for id := 2; id <= peers; id++ {
		if len(sinks[id].batches) != 1 {
			t.Errorf("peer %d saw the batch %d times", id, len(sinks[id].batches))
		}
	}
	if len(sinks[1].batches) != 0 {
		t.Error("originator received its own batch")
	}
}

// BenchmarkBroadcast is the gossip cost of one transaction broadcast to
// 50 peers, delivered within the iteration; msgs_per_sec is delivery
// throughput.
//   - mesh50: a full mesh. The batched engine enqueues ONE shared payload
//     per gossip, so allocs/op is the acceptance metric (49 messages per
//     op).
//   - dregular6-50: a fresh transaction per op relayed across a sparse
//     random 6-regular graph (multi-hop + duplicate suppression).
func BenchmarkBroadcast(b *testing.B) {
	join := func(b *testing.B, cfg Config) *Network {
		net := NewNetwork(cfg)
		for id := 1; id <= 50; id++ {
			net.Join(PeerID(id), discard{})
		}
		b.ReportAllocs()
		b.ResetTimer()
		return net
	}
	report := func(b *testing.B, net *Network) {
		b.StopTimer()
		sent, _ := net.Stats()
		b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "msgs_per_sec")
	}
	b.Run("mesh50", func(b *testing.B) {
		tx := (&types.Transaction{Nonce: 1, GasLimit: 1, Data: []byte{1}}).Memoize()
		net := join(b, Config{LatencyMs: 1})
		for i := 0; i < b.N; i++ {
			net.BroadcastTx(1, tx)
			net.AdvanceTo(uint64(i + 1))
		}
		report(b, net)
	})
	b.Run("dregular6-50", func(b *testing.B) {
		net := join(b, Config{LatencyMs: 1, Topology: RandomRegular(6, 1)})
		for i := 0; i < b.N; i++ {
			tx := (&types.Transaction{Nonce: uint64(i), GasLimit: 1, Data: []byte{byte(i), byte(i >> 8), byte(i >> 16)}}).Memoize()
			net.BroadcastTx(1, tx)
			net.Drain()
		}
		report(b, net)
	})
}
