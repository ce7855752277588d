package p2p

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sereth/internal/types"
)

// echoPeer answers from inside delivery: a transaction with hops left is
// gossiped on one hop shorter (alone or in a batch of two) and answered
// with a block sent straight back, a block above height zero is passed on
// one lower (sent back or gossiped) and followed by a request, and a
// request is answered with a block. Every delivery it sees goes to log,
// after the trace line the network wrote for it.
type echoPeer struct {
	net *Network
	id  PeerID
	log *strings.Builder
}

func hopTx(nonce uint64, hops byte) *types.Transaction {
	return &types.Transaction{Nonce: nonce, GasLimit: 1, Data: []byte{hops}}
}

func numbered(n uint64) *types.Block { return &types.Block{Header: &types.Header{Number: n}} }

func (p *echoPeer) HandleTx(from PeerID, tx *types.Transaction) {
	fmt.Fprintf(p.log, "  tx %d/%d\n", tx.Nonce, tx.Data[0])
	hops := tx.Data[0]
	if hops == 0 || (tx.Nonce+uint64(p.id))%2 != 0 {
		return
	}
	next := hopTx(tx.Nonce*10+uint64(p.id), hops-1)
	if tx.Nonce%3 == 0 {
		p.net.BroadcastTxs(p.id, []*types.Transaction{next, hopTx(next.Nonce+5, 0)})
	} else {
		p.net.BroadcastTx(p.id, next)
	}
	p.net.SendBlock(p.id, from, numbered(tx.Nonce%2))
}

func (p *echoPeer) HandleTxs(from PeerID, txs []*types.Transaction) {
	fmt.Fprintf(p.log, "  batch of %d\n", len(txs))
	for _, tx := range txs {
		p.HandleTx(from, tx)
	}
}

func (p *echoPeer) HandleBlock(from PeerID, b *types.Block) {
	n := b.Header.Number
	fmt.Fprintf(p.log, "  block %d\n", n)
	if n == 0 {
		return
	}
	if p.id%2 == 0 {
		p.net.SendBlock(p.id, from, numbered(n-1))
	} else {
		p.net.BroadcastBlock(p.id, numbered(n-1))
	}
	p.net.RequestBlocks(p.id, from, n-1)
}

func (p *echoPeer) HandleBlockRequest(from PeerID, fromNumber uint64) {
	fmt.Fprintf(p.log, "  request %d\n", fromNumber)
	if fromNumber > 0 {
		p.net.SendBlock(p.id, from, numbered(fromNumber-1))
	}
}

// echoTrace drives five echo peers through eight rounds of gossip — a
// partition in rounds 2 to 4, peer 4 leaving in round 5 and rejoining in
// round 6 — and returns the log of every delivery.
func echoTrace(cfg Config) string {
	var log strings.Builder
	net := NewNetwork(cfg)
	net.Trace(func(e TraceEvent) {
		fmt.Fprintf(&log, "@%d #%d %s %d->%d\n", e.At, e.Seq, e.Kind, e.From, e.To)
	})
	peers := make([]*echoPeer, 6)
	for id := PeerID(1); id <= 5; id++ {
		peers[id] = &echoPeer{net: net, id: id, log: &log}
		net.Join(id, peers[id])
	}
	for i := uint64(0); i < 8; i++ {
		origin := PeerID(1 + i%5)
		switch i {
		case 2:
			net.SetPartition([][]PeerID{{1, 2}, {3, 4, 5}})
		case 4:
			net.ClearPartition()
		case 5:
			net.Leave(4)
		case 6:
			net.Join(4, peers[4])
		}
		net.BroadcastTx(origin, hopTx(i, 2))
		if i == 3 {
			net.BroadcastBlock(origin, numbered(2))
		}
		net.AdvanceTo((i + 1) * 6)
	}
	net.Drain()
	sent, dropped := net.Stats()
	fmt.Fprintf(&log, "sent %d dropped %d faults %+v\n", sent, dropped, net.FaultStats())
	return log.String()
}

// echoConfigs are the three delivery paths an envelope can take: a
// lossless full mesh (the cached recipient list), a lossy mesh with
// per-link duplication, reordering and jitter except on the links out of
// peer 1 (the shared envelope beside the per-recipient clones), and a
// faulty ring (relayed envelopes).
var echoConfigs = []struct {
	name string
	cfg  Config
}{
	{"mesh-lossless", Config{LatencyMs: 10}},
	{"mesh-faults", Config{LatencyMs: 10, DropRate: 0.1, Seed: 3, Faults: &FaultConfig{
		Seed: 5,
		PolicyFor: func(from, to PeerID) LinkPolicy {
			if from == 1 {
				return LinkPolicy{}
			}
			return LinkPolicy{JitterMs: 4, DuplicateRate: 0.3, ReorderRate: 0.2, ReorderDelayMs: 12}
		},
	}}},
	{"ring-faults", Config{LatencyMs: 4, Seed: 8, Topology: Ring(), Faults: &FaultConfig{
		Seed:    9,
		Default: LinkPolicy{JitterMs: 3, DuplicateRate: 0.2, ReorderRate: 0.2, ReorderDelayMs: 7},
	}}},
}

// TestRecycledEnvelopesKeepTheTrace pins what handlers that gossip, send
// and request from inside delivery see — every delivery's time, sequence
// number, kind, link and payload, and the network's counters — to
// testdata/echo-<path>.golden, recorded before delivered envelopes were
// recycled, recipient lists cached and handlers resolved at delivery. A
// recycled envelope still referenced by a delivery in progress, or a
// shared recipient list written through, shows here as a wrong payload or
// a wrong recipient.
func TestRecycledEnvelopesKeepTheTrace(t *testing.T) {
	for _, c := range echoConfigs {
		t.Run(c.name, func(t *testing.T) {
			got := echoTrace(c.cfg)
			want, err := os.ReadFile(filepath.Join("testdata", "echo-"+c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("delivery log drifted from testdata/echo-%s.golden (%d lines, want %d)",
					c.name, strings.Count(got, "\n"), strings.Count(string(want), "\n"))
			}
		})
	}
}

// discard is a handler that keeps nothing.
type discard struct{}

func (discard) HandleTx(PeerID, *types.Transaction) {}
func (discard) HandleBlock(PeerID, *types.Block)    {}
func (discard) HandleBlockRequest(PeerID, uint64)   {}

// TestMeshGossipAllocatesNothing: once one round has grown an
// envelope's recipient list, a fault-free full-mesh gossip of a pool
// instance and the deliveries that follow allocate nothing — the envelope
// comes off the free list, its recipients are the sender's cached list,
// the wheel bucket links it through its own next field, and handlers
// resolve through the peer set captured at pop. No wheel slot needs
// warming: the 500 rounds land on slots never used before, then wrap
// the wheel onto used ones.
func TestMeshGossipAllocatesNothing(t *testing.T) {
	net := NewNetwork(Config{LatencyMs: 10})
	for id := PeerID(1); id <= 8; id++ {
		net.Join(id, discard{})
	}
	tx := sampleTx(1).Memoize()
	now := uint64(0)
	round := func() {
		net.BroadcastTx(PeerID(1+now%8), tx)
		now += 10
		net.AdvanceTo(now)
	}
	round()
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Errorf("a full-mesh gossip round allocates %v times, want 0", allocs)
	}
	if now < 2*wheelSize {
		t.Fatalf("the rounds reached %d ms: they did not wrap the %d-slot wheel", now, wheelSize)
	}
}

// TestFreshWheelSlotsAllocateNothing: on a fresh network, once one
// envelope has been recycled, a gossip whose delivery lands on a wheel
// slot no envelope has used yet costs nothing to schedule or deliver. A
// bucket has no storage of its own to grow: it links the envelopes it
// holds. (Each first envelope in a slot grew a slice while buckets were
// slices, which a fresh network per simulated run paid 2,048 times.)
func TestFreshWheelSlotsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	net := NewNetwork(Config{LatencyMs: 1})
	for id := PeerID(1); id <= 8; id++ {
		net.Join(id, discard{})
	}
	tx := sampleTx(1).Memoize()
	now := uint64(0)
	round := func() {
		net.BroadcastTx(PeerID(1+now%8), tx)
		now++ // the delivery lands on slot now: one past every slot used so far
		net.AdvanceTo(now)
	}
	round() // the one envelope is made, delivered and recycled
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Errorf("a delivery on a never-used wheel slot allocates %v times, want 0", allocs)
	}
	if now >= wheelSize {
		t.Fatalf("the rounds reached %d ms: they wrapped the %d-slot wheel", now, wheelSize)
	}
}

// TestConcurrentAdvanceDeliversEachOnce: two goroutines advance the clock
// while two others gossip and send, so envelopes are popped, delivered
// and recycled concurrently (run it under -race). Every delivery attempt
// arrives exactly once, with the payload it was sent with.
func TestConcurrentAdvanceDeliversEachOnce(t *testing.T) {
	net := NewNetwork(Config{LatencyMs: 3})
	var mu sync.Mutex
	got := map[PeerID]int{}
	for id := PeerID(1); id <= 4; id++ {
		net.Join(id, &checker{t: t, mu: &mu, got: got, id: id})
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				net.BroadcastTx(PeerID(g+1), sampleTx(uint64(i)))
				if i%20 == 0 {
					net.SendBlock(PeerID(g+1), 4, numbered(uint64(i)))
				}
			}
		}()
		go func() {
			defer wg.Done()
			for tick := uint64(1); tick <= 200; tick++ {
				net.AdvanceTo(tick)
			}
		}()
	}
	wg.Wait()
	net.Drain()
	sent, _ := net.Stats()
	total := 0
	for _, n := range got {
		total += n
	}
	if uint64(total) != sent || total != 2*300*3+2*15 {
		t.Errorf("%d deliveries for %d attempts, want %d", total, sent, 2*300*3+2*15)
	}
}

// checker counts deliveries and checks each payload against itself: a
// sample transaction's calldata is its nonce.
type checker struct {
	t   *testing.T
	mu  *sync.Mutex
	got map[PeerID]int
	id  PeerID
}

func (c *checker) HandleTx(_ PeerID, tx *types.Transaction) {
	if tx.Data[0] != byte(tx.Nonce) {
		c.t.Errorf("peer %d got a transaction with nonce %d and calldata %x", c.id, tx.Nonce, tx.Data)
	}
	c.mu.Lock()
	c.got[c.id]++
	c.mu.Unlock()
}

func (c *checker) HandleBlock(_ PeerID, b *types.Block) {
	if b == nil || b.Header.Number%20 != 0 {
		c.t.Errorf("peer %d got block %v", c.id, b)
	}
	c.mu.Lock()
	c.got[c.id]++
	c.mu.Unlock()
}

func (c *checker) HandleBlockRequest(PeerID, uint64) {}
