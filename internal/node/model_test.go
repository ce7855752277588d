package node

import (
	"fmt"
	"math/rand"
	"testing"

	"sereth/internal/chain"
	"sereth/internal/p2p"
	"sereth/internal/statedb"
	"sereth/internal/types"
)

// modelProducers is the number of honest producers in the node model.
const modelProducers = 3

// modelForger is the peer id forged blocks come from.
const modelForger p2p.PeerID = 99

// treeBlock is a block of the model's block tree: an honest block, its
// parent and the post state its children are built on.
type treeBlock struct {
	block  *types.Block
	hash   types.Hash
	parent *treeBlock
	post   *statedb.StateDB
}

func (b *treeBlock) number() uint64 { return b.block.Number() }

// producer is an honest model peer: it mines on its tip, and it serves a
// sync or fork request as a node does, with up to maxSyncBatch blocks of
// its own chain from the number asked for.
type producer struct {
	m   *nodeModel
	id  p2p.PeerID
	tip *treeBlock
}

func (p *producer) HandleTx(p2p.PeerID, *types.Transaction) {}
func (p *producer) HandleBlock(p2p.PeerID, *types.Block)    {}
func (p *producer) HandleBlockRequest(from p2p.PeerID, num uint64) {
	canon := p.tip.ancestry()
	for n := num; n < uint64(len(canon)) && n < num+maxSyncBatch; n++ {
		p.m.net.SendBlock(p.id, from, canon[n].block)
	}
}

// forger is the peer forged blocks come from; it serves nothing.
type forger struct{}

func (forger) HandleTx(p2p.PeerID, *types.Transaction) {}
func (forger) HandleBlock(p2p.PeerID, *types.Block)    {}
func (forger) HandleBlockRequest(p2p.PeerID, uint64)   {}

// ancestry returns the chain ending at b, indexed by block number.
func (b *treeBlock) ancestry() []*treeBlock {
	out := make([]*treeBlock, b.number()+1)
	for ; b != nil; b = b.parent {
		out[b.number()] = b
	}
	return out
}

// gossip is a block on its way to the node, and the peer it comes from.
type gossip struct {
	block  *types.Block
	from   p2p.PeerID
	forged bool
}

// nodeModel is what the node under test must converge to: a tree of
// honest blocks several producers extend, each on its own tip, and the
// best chain, the tree's highest block (the first built at its height).
// Gossip on its way to the node waits in inflight, in no order.
type nodeModel struct {
	t         *testing.T
	rng       *rand.Rand
	net       *p2p.Network
	proc      *chain.Processor
	gasLimit  uint64
	producers []*producer
	best      *treeBlock
	inflight  []gossip
	forged    int // forged blocks handed to the node, duplicates included
}

// mine has p build an empty child of its tip and gossip it.
func (m *nodeModel) mine(p *producer) *treeBlock {
	m.t.Helper()
	parent := p.tip
	header := &types.Header{
		ParentHash: parent.hash,
		Number:     parent.number() + 1,
		Coinbase:   types.Address{0: 0xee, 19: byte(p.id)},
		GasLimit:   m.gasLimit,
		Time:       parent.block.Header.Time + 1 + uint64(m.rng.Intn(30)),
	}
	res, err := m.proc.Process(parent.post, header, nil)
	if err != nil {
		m.t.Fatalf("model execution of block %d: %v", header.Number, err)
	}
	block := &types.Block{Header: header}
	header.TxRoot = block.TxRoot()
	header.ReceiptRoot, header.StateRoot, header.GasUsed = res.ReceiptRoot, res.StateRoot, res.GasUsed
	b := &treeBlock{block: block, hash: block.Hash(), parent: parent, post: res.Post}
	p.tip = b
	if b.number() > m.best.number() {
		m.best = b
	}
	m.inflight = append(m.inflight, gossip{block: block, from: p.id})
	return b
}

// forge sends the node a block no honest producer built, on a recent
// honest block: one whose claims its replay refutes, one numbered out
// of sequence, one on a parent nobody has, or one far past the head.
func (m *nodeModel) forge(head uint64) {
	parent := m.best
	if m.rng.Intn(2) == 0 {
		canon := m.best.ancestry()
		parent = canon[max(0, len(canon)-1-m.rng.Intn(12))]
	}
	h := *parent.block.Header
	h.ParentHash, h.Number, h.Time = parent.hash, parent.number()+1, h.Time+1
	switch m.rng.Intn(6) {
	case 0:
		h.StateRoot[m.rng.Intn(32)] ^= 1
	case 1:
		h.GasUsed++
	case 2:
		h.TxRoot[m.rng.Intn(32)] ^= 1
	case 3:
		h.Number += 1 + uint64(m.rng.Intn(3))
	case 4:
		m.rng.Read(h.ParentHash[:])
	case 5:
		m.rng.Read(h.ParentHash[:])
		h.Number = head + 2 + uint64(m.rng.Intn(3*bufferWindow))
	}
	m.inflight = append(m.inflight, gossip{block: &types.Block{Header: &h}, from: modelForger, forged: true})
}

// deliver hands the node one gossiped block, in no particular order. A
// message may be dropped, or delivered and kept to arrive again.
func (m *nodeModel) deliver(n *Node) {
	if len(m.inflight) == 0 {
		return
	}
	i := m.rng.Intn(len(m.inflight))
	g := m.inflight[i]
	if m.rng.Intn(5) != 0 { // kept 1 in 5 times: a duplicate follows
		m.inflight = append(m.inflight[:i], m.inflight[i+1:]...)
	}
	if m.rng.Intn(6) == 0 {
		return // lost
	}
	if g.forged {
		m.forged++
	}
	n.HandleBlock(g.from, g.block)
}

// check asserts what holds after every step: the buffers within their
// bounds, every rejection one of a forged block the node was handed, and
// no fork refused as too deep.
func (m *nodeModel) check(n *Node, step int) {
	m.t.Helper()
	orphans, fork := n.bufferSizes()
	if orphans > bufferWindow+1 || fork > bufferWindow+2 {
		m.t.Fatalf("step %d: %d orphans and %d fork candidates buffered; bounds %d and %d", step, orphans, fork, bufferWindow+1, bufferWindow+2)
	}
	st := n.Stats()
	if st.BlocksRejected > uint64(m.forged) {
		m.t.Fatalf("step %d: %d blocks rejected, %d forged ones handed to the node", step, st.BlocksRejected, m.forged)
	}
	if st.ForksTooDeep != 0 {
		m.t.Fatalf("step %d: a fork within the horizon refused as too deep", step)
	}
}

// TestNodeModel drives a node's block intake with seeded random block
// trees: several honest producers mine, each on its own tip — the best
// chain mostly, sometimes a block a few below it, or a stale tip of its
// own — and a forger sends blocks whose claims fail replay, numbered out
// of sequence, on unknown parents or far past the head. The node gets
// every block by gossip that permutes, duplicates, drops and delays it;
// its sync and fork back-walk requests reach the producers, which serve
// their own chains, and their responses land between later deliveries.
// After every step the orphan and fork buffers are within their bounds,
// every rejection is of a forged block, and no fork is refused as too
// deep. At the end the producers agree on the best chain and mine a few
// blocks on it, delivered in full, and the node's head must be the best
// chain's tip. A run without the forger must reject nothing. -short
// runs a slice.
func TestNodeModel(t *testing.T) {
	steps := 2000
	if testing.Short() {
		steps = 500
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			t.Parallel()
			runNodeModel(t, seed, steps, true)
		})
	}
	t.Run("honest", func(t *testing.T) {
		t.Parallel()
		if st := runNodeModel(t, 4, steps, false); st.BlocksRejected != 0 {
			t.Fatalf("%d blocks rejected with no forger", st.BlocksRejected)
		}
	})
}

func runNodeModel(t *testing.T, seed int64, steps int, forging bool) Stats {
	rng := rand.New(rand.NewSource(seed))
	net := p2p.NewNetwork(p2p.Config{LatencyMs: 10, Seed: seed})
	cfg := chain.DefaultConfig()
	genesis := statedb.New()
	n, err := New(Config{ID: 1, Mode: ModeGeth, Chain: cfg, Genesis: genesis, Network: net})
	if err != nil {
		t.Fatal(err)
	}
	root := &treeBlock{block: n.Chain().Head(), hash: n.Chain().Head().Hash(), post: genesis.Copy()}
	m := &nodeModel{t: t, rng: rng, net: net, proc: chain.NewProcessor(cfg), gasLimit: cfg.GasLimit, best: root}
	for i := range modelProducers {
		p := &producer{m: m, id: p2p.PeerID(2 + i), tip: root}
		m.producers = append(m.producers, p)
		net.Join(p.id, p)
	}
	net.Join(modelForger, forger{})

	reorgs := 0
	for step := 0; step < steps; step++ {
		head := n.Chain().Head().Hash()
		switch r := rng.Intn(100); {
		case r < 30:
			m.mine(m.producers[rng.Intn(len(m.producers))])
		case r < 38: // a producer moves to the best chain, or a little below its tip
			p := m.producers[rng.Intn(len(m.producers))]
			canon := m.best.ancestry()
			p.tip = canon[max(0, len(canon)-1-rng.Intn(4))]
		case r < 45 && forging:
			m.forge(n.Chain().Height())
		case r < 85:
			m.deliver(n)
		default: // responses to requests sent so far arrive
			net.AdvanceTo(net.Now() + uint64(rng.Intn(25)))
		}
		m.check(n, step)
		if got := n.Chain().Head(); got.Hash() != head && got.Header.ParentHash != head {
			reorgs++
		}
	}

	// Quiescence: the gossip still on its way is lost, and each producer
	// in turn takes the best chain and mines on it, delivered in full.
	m.inflight = nil
	for _, p := range m.producers {
		p.tip = m.best
		b := m.mine(p)
		m.inflight = nil
		n.HandleBlock(p.id, b.block)
		net.Drain()
		m.check(n, steps)
	}
	st := n.Stats()
	if got := n.Chain().Head(); got.Hash() != m.best.hash {
		orphans, fork := n.bufferSizes()
		t.Fatalf("after quiescence the node's head is block %d, the best chain's tip is %d (%d orphans, %d fork candidates buffered)",
			got.Number(), m.best.number(), orphans, fork)
	}
	t.Logf("%d steps: head %d, %d reorgs, %d blocks imported, %d orphaned, %d forged handed over, %d rejected",
		steps, m.best.number(), reorgs, st.BlocksImported, st.BlocksOrphaned, m.forged, st.BlocksRejected)
	if reorgs == 0 || st.BlocksOrphaned == 0 || forging && st.BlocksRejected == 0 {
		t.Fatalf("the run took %d reorgs orphaning %d blocks and rejected %d blocks: raise the steps", reorgs, st.BlocksOrphaned, st.BlocksRejected)
	}
	return st
}
