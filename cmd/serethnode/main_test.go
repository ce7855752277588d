package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
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
