package node

import (
	"testing"

	"sereth/internal/chain"
	"sereth/internal/p2p"
	"sereth/internal/types"
)

// branchServer is a peer that serves a chain one block per request, the
// block asked for: a fork back-walk then costs one round trip a block,
// as with a full peer, without re-sending the blocks above it.
type branchServer struct {
	net      *p2p.Network
	id       p2p.PeerID
	chain    *chain.Chain
	requests int
	sent     int
}

func (s *branchServer) HandleTx(p2p.PeerID, *types.Transaction) {}
func (s *branchServer) HandleBlock(p2p.PeerID, *types.Block)    {}
func (s *branchServer) HandleBlockRequest(from p2p.PeerID, num uint64) {
	s.requests++
	if b := s.chain.BlockByNumber(num); b != nil {
		s.sent++
		s.net.SendBlock(s.id, from, b)
	}
}

// forkedBy returns a node that mined past blocks on a common prefix of
// two while a branch of past+5 blocks grew from the same prefix, and a
// server of that branch, which has offered the node its tip. Every
// block the server sent afterwards is one of the branch at or below the
// node's head+1, which the node's intake buffers as a fork candidate and
// does not count as rejected.
func forkedBy(t *testing.T, past int) (*fixture, *Node, *branchServer) {
	t.Helper()
	f := newFixture(t,
		Config{Mode: ModeGeth, Miner: MinerBaseline},
		Config{Mode: ModeGeth, Miner: MinerBaseline},
	)
	a, b := f.nodes[0], f.nodes[1]
	ts := uint64(1)
	mine := func(n *Node, count int) *types.Block {
		var tip *types.Block
		for range count {
			var err error
			if tip, err = n.MineAndBroadcast(ts); err != nil {
				t.Fatal(err)
			}
			ts++
		}
		return tip
	}
	mine(a, 2)
	f.net.Drain()
	f.net.SetPartition([][]p2p.PeerID{{a.ID()}, {b.ID()}})
	mine(a, past)
	tip := mine(b, past+5)
	f.net.Drain()
	f.net.ClearPartition()
	if a.Chain().Height() != uint64(2+past) || b.Chain().BlockByNumber(2).Hash() != a.Chain().BlockByNumber(2).Hash() {
		t.Fatalf("a at height %d, want %d on the common prefix", a.Chain().Height(), 2+past)
	}
	srv := &branchServer{net: f.net, id: 99, chain: b.Chain()}
	f.net.Join(srv.id, srv)
	a.HandleBlock(srv.id, tip)
	f.net.Drain()
	return f, a, srv
}

// TestForkPastHorizon: a memory chain keeps the post states of the 512
// blocks below its head, and a node buffers fork candidates numbered at
// most 512 below it. A longer honest branch that forks 512 blocks below
// the head is adopted. One that forks 513 below attaches to a block the
// buffer still holds a candidate above, and the chain refuses it with
// ErrForkTooDeep: the node counts that apart from rejections, and the
// branch, arriving again from another peer, sends no back-walk after
// it (before, the refusal dropped the candidates, and each new sender
// was asked for the branch again). One
// that forks deeper never reaches the chain: the back-walk stops where
// its blocks fall out of the buffer.
func TestForkPastHorizon(t *testing.T) {
	onBranch := func(a *Node, srv *branchServer) bool {
		return a.Chain().Head().Hash() == srv.chain.BlockByNumber(a.Chain().Height()).Hash()
	}
	t.Run("at the horizon", func(t *testing.T) {
		_, a, srv := forkedBy(t, 512)
		if !onBranch(a, srv) {
			t.Fatalf("a at height %d did not adopt the branch forking 512 below its head", a.Chain().Height())
		}
		if st := a.Stats(); st.ForksTooDeep != 0 || st.BlocksOrphaned != 512 {
			t.Errorf("adopting the branch counted %d too-deep forks and %d orphaned blocks, want 0 and 512", st.ForksTooDeep, st.BlocksOrphaned)
		}
	})
	t.Run("one below", func(t *testing.T) {
		f, a, srv := forkedBy(t, 513)
		head := a.Chain().Head().Hash()
		st := a.Stats()
		if onBranch(a, srv) || st.ForksTooDeep != 1 {
			t.Fatalf("a on the branch %v, %d too-deep forks; want its own chain and 1", onBranch(a, srv), st.ForksTooDeep)
		}
		if st.BlocksRejected != 0 {
			t.Errorf("%d blocks rejected for the %d honest branch blocks sent: a fork candidate or the refused fork counted as a rejection", st.BlocksRejected, srv.sent)
		}
		// Another peer on the branch sends the blocks just above the
		// attach point, as the rest of a batch response would.
		other := &branchServer{net: f.net, id: 98, chain: srv.chain}
		f.net.Join(other.id, other)
		for num := uint64(4); num < 12; num++ {
			a.HandleBlock(other.id, srv.chain.BlockByNumber(num))
			f.net.Drain()
		}
		if other.requests != 0 {
			t.Errorf("the refused branch arriving from another peer sent it %d requests for the branch", other.requests)
		}
		if a.Chain().Head().Hash() != head || a.Stats().BlocksRejected != 0 {
			t.Errorf("the refused branch moved the head or counted rejections")
		}
	})
	t.Run("far below", func(t *testing.T) {
		_, a, srv := forkedBy(t, 600)
		st := a.Stats()
		if onBranch(a, srv) || st.ForksTooDeep != 0 || st.BlocksRejected != 0 || srv.sent == 0 {
			t.Errorf("a on the branch %v, %d too-deep forks, %d rejected for %d sent; want its own chain, 0, 0 and some", onBranch(a, srv), st.ForksTooDeep, st.BlocksRejected, srv.sent)
		}
		if _, fork := a.bufferSizes(); srv.requests > bufferWindow+3 || fork > bufferWindow+2 {
			t.Errorf("the back-walk sent %d requests and buffered %d candidates; bounds %d and %d", srv.requests, fork, bufferWindow+3, bufferWindow+2)
		}
	})
}
