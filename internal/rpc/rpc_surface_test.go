package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// rawCall POSTs body verbatim and returns the decoded JSON-RPC error
// code (0 when the call succeeded).
func rawCall(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var out struct {
		Error *rpcError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Error == nil {
		return 0
	}
	return out.Error.Code
}

func reqJSON(method string, params ...string) string {
	return fmt.Sprintf(`{"jsonrpc":"2.0","id":1,"method":"%s","params":[%s]}`,
		method, strings.Join(params, ","))
}

// TestDispatchSurface pins the exact error code for every malformed
// request shape across the full method set.
func TestDispatchSurface(t *testing.T) {
	srv, _, _ := testServer(t)
	cases := []struct {
		name string
		body string
		code int
	}{
		{"ok blockNumber", reqJSON("eth_blockNumber"), 0},
		{"ok txpool_status", reqJSON("txpool_status"), 0},
		{"ok sereth_view", reqJSON("sereth_view"), 0},
		{"ok sereth_series", reqJSON("sereth_series"), 0},
		{"unknown method", reqJSON("eth_mystery"), codeMethodNotFound},
		{"parse error", `{"jsonrpc":"2.0", truncated`, codeParse},

		{"getStorageAt no params", reqJSON("eth_getStorageAt"), codeInvalidParams},
		{"getStorageAt one param", reqJSON("eth_getStorageAt", `"0x01"`), codeInvalidParams},
		{"getStorageAt bad address", reqJSON("eth_getStorageAt", `"0xzz"`, `"0x0"`), codeInvalidParams},
		{"getStorageAt bad slot", reqJSON("eth_getStorageAt", `"0x00000000000000000000000000000000000000cc"`, `"0xnope"`), codeInvalidParams},
		{"getStorageAt numeric param", reqJSON("eth_getStorageAt", `7`, `"0x0"`), codeInvalidParams},

		{"getTransactionCount no params", reqJSON("eth_getTransactionCount"), codeInvalidParams},
		{"getTransactionCount bad address", reqJSON("eth_getTransactionCount", `"0xqq"`), codeInvalidParams},

		{"call no params", reqJSON("eth_call"), codeInvalidParams},
		{"call bad to", reqJSON("eth_call", `"bogus"`, `"0x00"`), codeInvalidParams},
		{"call bad data", reqJSON("eth_call", `"0x00000000000000000000000000000000000000cc"`, `"0x0g"`), codeInvalidParams},

		{"sendRaw no params", reqJSON("eth_sendRawTransaction"), codeInvalidParams},
		{"sendRaw bad hex", reqJSON("eth_sendRawTransaction", `"0x0g"`), codeInvalidParams},
		{"sendRaw not rlp", reqJSON("eth_sendRawTransaction", `"0x00"`), codeInvalidParams},
	}
	for _, tc := range cases {
		if got := rawCall(t, srv.URL, tc.body); got != tc.code {
			t.Errorf("%s: code %d, want %d", tc.name, got, tc.code)
		}
	}
}

// TestOversizedBody pins the 1 MiB request cap: a body truncated at the
// limit cannot parse, and the server answers with a parse error instead
// of buffering arbitrarily large payloads.
func TestOversizedBody(t *testing.T) {
	srv, _, _ := testServer(t)
	pad := strings.Repeat("a", 1<<21) // 2 MiB of param payload
	body := `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":["` + pad + `"]}`
	if got := rawCall(t, srv.URL, body); got != codeParse {
		t.Errorf("oversized body: code %d, want %d", got, codeParse)
	}
	// Just under the limit still parses (unknown params are ignored by
	// eth_blockNumber), proving the cap sits at the boundary.
	small := `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":["` +
		strings.Repeat("a", 1<<19) + `"]}`
	if got := rawCall(t, srv.URL, small); got != 0 {
		t.Errorf("half-MiB body: code %d, want 0", got)
	}
}

func TestClientSurfacesHTTPStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "route not found", http.StatusNotFound)
	}))
	defer srv.Close()
	err := NewClient(srv.URL).Call("eth_blockNumber", nil)
	if !errors.Is(err, ErrHTTPStatus) {
		t.Fatalf("want ErrHTTPStatus, got %v", err)
	}
	if !strings.Contains(err.Error(), "404") || !strings.Contains(err.Error(), "route not found") {
		t.Fatalf("status error lacks detail: %v", err)
	}
}

// TestClientSurfacesShedStatus: a 503 (the server's shed/drain answer)
// is final — one attempt, reported as ErrHTTPStatus for the caller to
// act on.
func TestClientSurfacesShedStatus(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "warming up", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	if err := NewClient(srv.URL).Call("eth_blockNumber", nil); !errors.Is(err, ErrHTTPStatus) {
		t.Fatalf("want ErrHTTPStatus, got %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1", got)
	}
}

func TestClientServerVerdicts(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "forbidden", http.StatusForbidden) // 4xx: not transient
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	if err := c.Call("eth_blockNumber", nil); !errors.Is(err, ErrHTTPStatus) {
		t.Fatalf("want ErrHTTPStatus, got %v", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("4xx retried %d times", got)
	}

	// JSON-RPC errors (the server answered) are one attempt too.
	var rpcHits atomic.Int64
	srv2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rpcHits.Add(1)
		_, _ = w.Write([]byte(`{"jsonrpc":"2.0","id":1,"error":{"code":-32601,"message":"nope"}}`))
	}))
	defer srv2.Close()
	c2 := NewClient(srv2.URL)
	if err := c2.Call("eth_blockNumber", nil); !errors.Is(err, ErrRPC) {
		t.Fatalf("want ErrRPC, got %v", err)
	}
	if got := rpcHits.Load(); got != 1 {
		t.Fatalf("rpc error retried %d times", got)
	}
}

func TestClientTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)
	c := NewClient(srv.URL, WithTimeout(30*time.Millisecond))
	start := time.Now()
	err := c.Call("eth_blockNumber", nil)
	if err == nil {
		t.Fatal("stalled server did not time out")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took far longer than configured")
	}
}
