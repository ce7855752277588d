package rpc

import (
	"bytes"
	"context"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/wallet"
)

// closeSpy records that the node closed its store.
type closeSpy struct {
	store.Store
	closed atomic.Bool
}

func (s *closeSpy) Close() error {
	s.closed.Store(true)
	return s.Store.Close()
}

// TestShutdownWaitsForEveryAdmittedRequest hammers a server while it
// shuts down. A request is either refused or finished before the store
// closes: none may pass the draining test, lose the processor, and
// dispatch against a store Shutdown has meanwhile closed.
func TestShutdownWaitsForEveryAdmittedRequest(t *testing.T) {
	reg := wallet.NewRegistry()
	reg.Register(wallet.NewKey("owner"))
	body := []byte(reqJSON("sereth_view"))
	for round := 0; round < 200; round++ {
		genesis := statedb.New()
		genesis.SetCode(contractAddr, asm.SerethContract())
		chainCfg := chain.DefaultConfig()
		chainCfg.Registry = reg
		spy := &closeSpy{Store: store.NewMem()}
		n, err := node.New(node.Config{
			ID: 1, Mode: node.ModeSereth, Miner: node.MinerBaseline, Contract: contractAddr,
			Chain: chainCfg, Genesis: genesis, Store: spy, Network: p2p.NewNetwork(p2p.Config{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(n, contractAddr)
		var late, served atomic.Int64
		s.onRequest = func() {
			if spy.closed.Load() {
				late.Add(1)
			}
			served.Add(1)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						s.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/", bytes.NewReader(body)))
					}
				}
			}()
		}
		for served.Load() < 20 {
			runtime.Gosched()
		}
		if err := s.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		if late.Load() != 0 {
			t.Fatalf("round %d: %d requests were dispatched after the store was closed", round, late.Load())
		}
	}
}
