package rpc

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// blindStore wraps a Store and, once armed, answers every Get with a
// miss — the kv-level signature of a datadir that lost its state
// records out from under a serving node.
type blindStore struct {
	store.Store
	armed atomic.Bool
}

func (b *blindStore) Get(key []byte) ([]byte, bool) {
	if b.armed.Load() {
		return nil, false
	}
	return b.Store.Get(key)
}

// TestPanicRecoveredToInternalError drives a genuine handler panic —
// the trie layer's resolve on a store whose state records vanished —
// and requires a codeInternal JSON-RPC response instead of a dead node.
func TestPanicRecoveredToInternalError(t *testing.T) {
	owner := wallet.NewKey("panic-owner")
	reg := wallet.NewRegistry()
	reg.Register(owner)
	genesis := statedb.New()
	genesis.SetCode(contractAddr, asm.SerethContract())
	seedCfg := chain.DefaultConfig()
	seedCfg.Registry = reg
	seedCfg.Store = store.NewMem()
	chain.New(seedCfg, genesis)

	blind := &blindStore{Store: seedCfg.Store}
	chainCfg := chain.DefaultConfig()
	chainCfg.Registry = reg
	n, err := node.New(node.Config{
		ID: 1, Mode: node.ModeSereth, Miner: node.MinerBaseline,
		Contract: contractAddr, Chain: chainCfg, Store: blind,
		Network: p2p.NewNetwork(p2p.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.BootSource() != node.BootRecovered {
		t.Fatalf("boot source %v", n.BootSource())
	}
	srv := httptest.NewServer(NewServer(n, contractAddr))
	t.Cleanup(srv.Close)
	blind.armed.Store(true)

	// Reading a never-resolved account walks the (now unreadable)
	// account trie and panics deep inside the state layer.
	addr := `"` + types.Address{19: 0xee}.Hex() + `"`
	if code := rawCall(t, srv.URL, reqJSON("eth_getStorageAt", addr, `"0x0"`)); code != codeInternal {
		t.Fatalf("panic surfaced as code %d, want %d", code, codeInternal)
	}
	// The server survived: a method that stays off the state path
	// still answers.
	if code := rawCall(t, srv.URL, reqJSON("eth_blockNumber")); code != 0 {
		t.Fatalf("server dead after recovered panic: code %d", code)
	}
}

// TestPanicRecoveryViaHook pins the recovery middleware itself with a
// synthetic panic.
func TestPanicRecoveryViaHook(t *testing.T) {
	_, n, _ := testServer(t)
	s := NewServer(n, contractAddr)
	s.onRequest = func() { panic("boom") }
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	if code := rawCall(t, srv.URL, reqJSON("eth_blockNumber")); code != codeInternal {
		t.Fatalf("code %d, want %d", code, codeInternal)
	}
}

// TestMaxInFlightSheds wedges the single serving slot and checks the
// next request is shed with 503 — surfaced by Client as ErrHTTPStatus — not
// queued behind it.
func TestMaxInFlightSheds(t *testing.T) {
	_, n, _ := testServer(t)
	s := NewServer(n, contractAddr, WithMaxInFlight(1))
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.onRequest = func() {
		entered <- struct{}{}
		<-release
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(reqJSON("eth_blockNumber")))
		if err == nil {
			_ = resp.Body.Close()
		}
	}()
	<-entered // slot is held

	resp, err := http.Post(srv.URL, "application/json", strings.NewReader(reqJSON("eth_blockNumber")))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	close(release)
	wg.Wait()

	// With the slot free again the server accepts work.
	if code := rawCall(t, srv.URL, reqJSON("eth_blockNumber")); code != 0 {
		t.Fatalf("post-shed request failed: code %d", code)
	}
}

// TestShutdownDrainsAndClosesStore: in-flight requests finish, new ones
// get 503, and the node's store ends up flushed and closed.
func TestShutdownDrainsAndClosesStore(t *testing.T) {
	owner := wallet.NewKey("drain-owner")
	reg := wallet.NewRegistry()
	reg.Register(owner)
	genesis := statedb.New()
	genesis.SetCode(contractAddr, asm.SerethContract())
	chainCfg := chain.DefaultConfig()
	chainCfg.Registry = reg
	kv, err := store.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{
		ID: 1, Mode: node.ModeSereth, Miner: node.MinerBaseline,
		Contract: contractAddr, Chain: chainCfg, Genesis: genesis, Store: kv,
		Network: p2p.NewNetwork(p2p.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(n, contractAddr)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	var once sync.Once
	s.onRequest = func() {
		once.Do(func() {
			entered <- struct{}{}
			<-release
		})
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	slowDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(reqJSON("eth_blockNumber")))
		if err != nil {
			slowDone <- -1
			return
		}
		defer func() { _ = resp.Body.Close() }()
		var out struct {
			Error *rpcError `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&out)
		slowDone <- resp.StatusCode
	}()
	<-entered

	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // draining flag is set

	resp, err := http.Post(srv.URL, "application/json", strings.NewReader(reqJSON("eth_blockNumber")))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", resp.StatusCode)
	}

	close(release)
	if status := <-slowDone; status != http.StatusOK {
		t.Fatalf("in-flight request not drained cleanly: %d", status)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The store is closed: further writes fail, reads still serve.
	if err := kv.Put([]byte("x"), []byte("y")); err != store.ErrClosed {
		t.Fatalf("store not closed after Shutdown: %v", err)
	}
	// Idempotent: a second shutdown is a no-op.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestShutdownHonorsContext: a wedged request cannot hold shutdown
// hostage past its deadline; the store is still closed.
func TestShutdownHonorsContext(t *testing.T) {
	_, n, _ := testServer(t)
	s := NewServer(n, contractAddr)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.onRequest = func() {
		entered <- struct{}{}
		<-release
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(release) })

	go func() {
		resp, err := http.Post(srv.URL, "application/json", strings.NewReader(reqJSON("eth_blockNumber")))
		if err == nil {
			_ = resp.Body.Close()
		}
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown with wedged request: %v", err)
	}
}

// TestHealthEndpoint checks the liveness probe through both phases.
func TestHealthEndpoint(t *testing.T) {
	_, n, _ := testServer(t)
	s := NewServer(n, contractAddr)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	get := func() (int, map[string]interface{}) {
		resp, err := http.Get(srv.URL + healthPath)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		var out map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	code, out := get()
	if code != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("health: %d %v", code, out)
	}
	if _, ok := out["height"]; !ok {
		t.Fatalf("health payload missing height: %v", out)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, out = get()
	if code != http.StatusServiceUnavailable || out["status"] != "draining" {
		t.Fatalf("draining health: %d %v", code, out)
	}
}
