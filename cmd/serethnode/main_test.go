package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// TestSilentConnectionIsClosed: a peer that connects and never sends a
// byte is hung up on after readHeaderTimeout instead of pinning a
// goroutine and a descriptor for the life of the node.
func TestSilentConnectionIsClosed(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.NotFoundHandler())
	go func() { _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close() }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	start := time.Now()
	_ = conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent connection: read returned %v after %v, want EOF from the server hanging up", err, time.Since(start))
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("hung up after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
}

// TestListenerLimits pins the rest of what newHTTPServer sets: a zero
// would mean no limit.
func TestListenerLimits(t *testing.T) {
	srv := newHTTPServer(":0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 {
		t.Fatalf("listener without a limit: %+v", srv)
	}
}

// TestCompactSweepsAReorgedDatadir: -compact on a datadir whose chain
// switched branches drops every record only the orphaned branch's states
// reference and keeps the canonical states whole, and the datadir then
// reopens from genesis on the head it had.
func TestCompactSweepsAReorgedDatadir(t *testing.T) {
	dir := t.TempDir()
	kv, err := store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := wallet.NewRegistry()
	writer := wallet.NewKey("compact-writer")
	reg.Register(writer)
	cfg := chain.DefaultConfig()
	cfg.Registry, cfg.Store = reg, kv
	contract := types.Address{19: 0xd1}
	genesis := statedb.New()
	genesis.SetCode(contract, asm.KVStoreContract())
	c := chain.New(cfg, genesis)

	// build executes a block of puts on parent, whose post state is st.
	build := func(parent *types.Block, st *statedb.StateDB, value uint64) (*types.Block, *statedb.StateDB) {
		t.Helper()
		txs := make([]*types.Transaction, 3)
		for i := range txs {
			txs[i] = writer.SignTx(&types.Transaction{
				Nonce: st.GetNonce(writer.Address()) + uint64(i), To: contract, GasPrice: 10, GasLimit: 100_000,
				Data: types.EncodeCall(asm.SelPut, types.WordFromUint64(value*8+uint64(i)), types.WordFromUint64(value)),
			})
		}
		header := &types.Header{ParentHash: parent.Hash(), Number: parent.Number() + 1, GasLimit: cfg.GasLimit, Time: value}
		res, err := c.Process(st, header, txs)
		if err != nil {
			t.Fatal(err)
		}
		block := &types.Block{Header: header, Txs: txs}
		header.TxRoot = block.TxRoot()
		header.ReceiptRoot, header.StateRoot, header.GasUsed = res.ReceiptRoot, res.StateRoot, res.GasUsed
		return block, res.Post
	}
	records := func(states []*statedb.StateDB) map[string]bool {
		out := map[string]bool{}
		for _, st := range states {
			if err := st.Walk(nil, func(key, _ []byte) { out[string(key)] = true }); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	// Blocks 1-4, then a branch of 2'-5' on block 1 that orphans 2-4.
	var canonical, orphaned []*statedb.StateDB
	parent, st := c.Head(), c.State()
	for n := uint64(1); n <= 4; n++ {
		block, post := build(parent, st, n)
		if _, err := c.InsertBlock(block); err != nil {
			t.Fatal(err)
		}
		if n == 1 {
			canonical = append(canonical, post)
		} else {
			orphaned = append(orphaned, post)
		}
		parent, st = block, post
	}
	parent, st = c.BlockByNumber(1), canonical[0]
	var branch []*types.Block
	for n := uint64(2); n <= 5; n++ {
		block, post := build(parent, st, 100+n)
		branch, canonical = append(branch, block), append(canonical, post)
		parent, st = block, post
	}
	if orphans, err := c.ImportFork(branch); err != nil || orphans != 3 {
		t.Fatalf("reorg: %d orphaned, %v", orphans, err)
	}
	head := c.Head().Hash()
	kept, dropped := records(canonical), records(orphaned)
	for key := range kept {
		delete(dropped, key)
	}
	for key := range dropped {
		if _, ok := kv.Get([]byte(key)); !ok {
			t.Fatalf("the datadir lacks a record of an orphaned state before the sweep")
		}
	}
	if len(dropped) == 0 {
		t.Fatal("the orphaned states reference no record of their own")
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	if err := compactDatadir(dir); err != nil {
		t.Fatal(err)
	}
	kv, err = store.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = kv.Close() }()
	for key := range dropped {
		if _, ok := kv.Get([]byte(key)); ok {
			t.Fatalf("the sweep kept a record only an orphaned state references")
		}
	}
	for key := range kept {
		if _, ok := kv.Get([]byte(key)); !ok {
			t.Fatalf("the sweep dropped a record of a canonical state")
		}
	}
	cfg.Store = kv
	re, err := chain.Open(cfg, kv)
	if err != nil {
		t.Fatal(err)
	}
	if re.Head().Hash() != head || re.Base() != 0 {
		t.Fatalf("reopened at head %d from block %d, want the head it had from genesis", re.Height(), re.Base())
	}
}
