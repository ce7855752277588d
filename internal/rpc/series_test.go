package rpc

import (
	"sync"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/keccak"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// chainedSets signs n sets, each hanging off the previous one's mark.
func chainedSets(owner *wallet.Key, n int) []*types.Transaction {
	txs := make([]*types.Transaction, n)
	prev, flag := types.ZeroWord, types.FlagHead
	for i := range txs {
		value := types.WordFromUint64(uint64(i + 1))
		txs[i] = owner.SignTx(&types.Transaction{
			Nonce: uint64(i), To: contractAddr, GasPrice: 10, GasLimit: 300_000,
			Data: types.EncodeCall(asm.SelSet, flag, prev, value),
		})
		prev, flag = types.NextMark(prev, value), types.FlagChain
	}
	return txs
}

func seriesOverRPC(t *testing.T, c *Client) []string {
	t.Helper()
	var series []string
	if err := c.Call("sereth_series", &series); err != nil {
		t.Error(err)
	}
	return series
}

// TestSeriesServedFromLiveDAG: sereth_series is an unauthenticated call;
// it used to deep-copy the pool and re-hash one mark per pending set on
// every request. On an attached node it reads the live series: the same
// marks as the from-snapshot derivation, and not one Keccak.
func TestSeriesServedFromLiveDAG(t *testing.T) {
	srv, n, owner := testServer(t)
	c := NewClient(srv.URL)
	if err := n.SubmitTxs(chainedSets(owner, 20)); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, node := range n.Tracker().SeriesOf(n.Pool().Pending()) {
		want = append(want, node.Mark.Hex())
	}
	before := keccak.Invocations()
	got := seriesOverRPC(t, c)
	if hashed := keccak.Invocations() - before; hashed != 0 {
		t.Errorf("sereth_series ran %d Keccak digests on an attached node", hashed)
	}
	if len(got) != 20 || len(want) != 20 {
		t.Fatalf("series of %d marks, from-snapshot %d, want 20", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mark %d: %s, from-snapshot %s", i, got[i], want[i])
		}
	}
}

// TestSeriesRacesPoolChurn serves sereth_series while batches are
// admitted and the series' tail is removed: every answer is a prefix of
// the one chain there is, and the last one is the whole of it.
func TestSeriesRacesPoolChurn(t *testing.T) {
	srv, n, owner := testServer(t)
	c := NewClient(srv.URL)
	txs := chainedSets(owner, 60)
	marks := make([]string, len(txs))
	for i, tx := range txs {
		mark, _ := tx.Copy().Memoize().Mark()
		marks[i] = mark.Hex()
	}

	served := make(chan struct{}) // one token per answer: paces the writer to the reader
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < len(txs); i += 5 {
			<-served
			if err := n.SubmitTxs(txs[i : i+5]); err != nil {
				t.Error(err)
				return
			}
			// The tail leaves and comes back, as an eviction and a gossip
			// redelivery would have it.
			tail := txs[i+4]
			n.Pool().Remove([]types.Hash{tail.Hash()})
			if err := n.SubmitTx(tail); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() {
		writers.Wait()
		close(done)
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		case served <- struct{}{}:
		}
		got := seriesOverRPC(t, c)
		if len(got) > len(marks) {
			t.Fatalf("series of %d marks from %d sets", len(got), len(marks))
		}
		for i := range got {
			if got[i] != marks[i] {
				t.Fatalf("mark %d is not the chain's", i)
			}
		}
	}
	if got := seriesOverRPC(t, c); len(got) != len(marks) {
		t.Fatalf("settled series has %d marks, want %d", len(got), len(marks))
	}
}
