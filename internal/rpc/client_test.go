package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

const okReply = `{"jsonrpc":"2.0","id":1,"result":"0x2a"}`

// dialCounting serves h and counts the connections it accepts.
func dialCounting(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	dials := new(atomic.Int64)
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, dials
}

func blockNumber(c *Client) (string, error) {
	var s string
	err := c.Call("eth_blockNumber", &s)
	return s, err
}

// TestConnectionLifecycle walks one Client through what can happen to
// its kept-alive connections.
func TestConnectionLifecycle(t *testing.T) {
	reply := func(w http.ResponseWriter, _ *http.Request) { _, _ = w.Write([]byte(okReply)) }
	cases := []struct {
		name    string
		handler func(calls *atomic.Int64) http.HandlerFunc
		// run makes the calls and returns how many connections it
		// expects the server to have accepted.
		run func(t *testing.T, c *Client, srv *httptest.Server) (wantDials int64)
	}{
		{
			name:    "keep-alive reuses one connection",
			handler: func(*atomic.Int64) http.HandlerFunc { return reply },
			run: func(t *testing.T, c *Client, _ *httptest.Server) int64 {
				for i := 0; i < 50; i++ {
					if s, err := blockNumber(c); err != nil || s != "0x2a" {
						t.Fatalf("call %d: %q %v", i, s, err)
					}
				}
				return 1
			},
		},
		{
			name:    "server closed the idle connection: one redial, no error",
			handler: func(*atomic.Int64) http.HandlerFunc { return reply },
			run: func(t *testing.T, c *Client, srv *httptest.Server) int64 {
				for round := 0; round < 3; round++ {
					if _, err := blockNumber(c); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
					srv.CloseClientConnections()
				}
				if _, err := blockNumber(c); err != nil {
					t.Fatalf("after the last close: %v", err)
				}
				return 4
			},
		},
		{
			name: "Connection: close is not reused",
			handler: func(*atomic.Int64) http.HandlerFunc {
				return func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set("Connection", "close")
					reply(w, r)
				}
			},
			run: func(t *testing.T, c *Client, _ *httptest.Server) int64 {
				for i := 0; i < 5; i++ {
					if _, err := blockNumber(c); err != nil {
						t.Fatalf("call %d: %v", i, err)
					}
				}
				return 5
			},
		},
		{
			name: "a handler that flushes mid-body (chunked) decodes, and the connection is reused",
			handler: func(*atomic.Int64) http.HandlerFunc {
				return func(w http.ResponseWriter, _ *http.Request) {
					_, _ = w.Write([]byte(okReply[:17]))
					w.(http.Flusher).Flush()
					_, _ = w.Write([]byte(okReply[17:]))
				}
			},
			run: func(t *testing.T, c *Client, _ *httptest.Server) int64 {
				for i := 0; i < 5; i++ {
					if s, err := blockNumber(c); err != nil || s != "0x2a" {
						t.Fatalf("call %d: %q %v", i, s, err)
					}
				}
				return 1
			},
		},
		{
			name: "404 and 503 are one attempt each and carry the body",
			handler: func(calls *atomic.Int64) http.HandlerFunc {
				return func(w http.ResponseWriter, _ *http.Request) {
					if calls.Add(1) == 1 {
						http.Error(w, "route not found", http.StatusNotFound)
					} else {
						http.Error(w, "warming up", http.StatusServiceUnavailable)
					}
				}
			},
			run: func(t *testing.T, c *Client, _ *httptest.Server) int64 {
				for _, want := range []string{"404 route not found", "503 warming up"} {
					if _, err := blockNumber(c); !errors.Is(err, ErrHTTPStatus) || !strings.Contains(err.Error(), want) {
						t.Fatalf("want ErrHTTPStatus with %q, got %v", want, err)
					}
				}
				return 2
			},
		},
		{
			name: "a timeout mid-body is a timeout error and the connection is discarded",
			handler: func(calls *atomic.Int64) http.HandlerFunc {
				return func(w http.ResponseWriter, r *http.Request) {
					if calls.Add(1) > 1 {
						reply(w, r)
						return
					}
					w.Header().Set("Content-Length", "40")
					_, _ = w.Write([]byte(okReply[:17]))
					w.(http.Flusher).Flush()
					<-r.Context().Done() // until the client gives up and hangs up
				}
			},
			run: func(t *testing.T, c *Client, _ *httptest.Server) int64 {
				_, err := blockNumber(c)
				var ne net.Error
				if !errors.As(err, &ne) || !ne.Timeout() {
					t.Fatalf("want a timeout, got %v", err)
				}
				if s, err := blockNumber(c); err != nil || s != "0x2a" {
					t.Fatalf("call after the timeout: %q %v", s, err)
				}
				return 2
			},
		},
		{
			name:    "a request over 1 MiB is refused unsent and the client works on",
			handler: func(*atomic.Int64) http.HandlerFunc { return reply },
			run: func(t *testing.T, c *Client, _ *httptest.Server) int64 {
				if err := c.Call("eth_blockNumber", nil, strings.Repeat("a", maxRequestBody)); !errors.Is(err, errTooLarge) {
					t.Fatalf("want errTooLarge, got %v", err)
				}
				if _, err := blockNumber(c); err != nil {
					t.Fatal(err)
				}
				return 1
			},
		},
		{
			name:    "eight goroutines share one client",
			handler: func(*atomic.Int64) http.HandlerFunc { return reply },
			run: func(t *testing.T, c *Client, _ *httptest.Server) int64 {
				var wg sync.WaitGroup
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < 2000; i++ {
							if s, err := blockNumber(c); err != nil || s != "0x2a" {
								t.Errorf("call %d: %q %v", i, s, err)
								return
							}
						}
					}()
				}
				wg.Wait()
				return -8 // at most one connection per goroutine
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, dials := dialCounting(t, tc.handler(new(atomic.Int64)))
			c := NewClient(srv.URL, WithTimeout(300*time.Millisecond))
			defer c.Close()
			want := tc.run(t, c, srv)
			if got := dials.Load(); (want >= 0 && got != want) || (want < 0 && got > -want) {
				t.Errorf("server accepted %d connections, want %d (negative: at most)", got, want)
			}
		})
	}
}

// TestEndpointMustBeHTTP: any URL the client cannot dial as plain HTTP
// is a typed error from the first Call, not a panic or a hang.
func TestEndpointMustBeHTTP(t *testing.T) {
	for _, endpoint := range []string{"https://localhost:8545", "ws://localhost:8546", "localhost:8545", "http://", "::"} {
		c := NewClient(endpoint)
		if err := c.Call("eth_blockNumber", nil); !errors.Is(err, errEndpoint) {
			t.Errorf("%q: want errEndpoint, got %v", endpoint, err)
		}
		c.Close()
	}
}

// TestFallbackRequestEncoding: a call appendRequest declines is rendered
// as the two-step marshal the client used to do, byte for byte.
func TestFallbackRequestEncoding(t *testing.T) {
	paramSets := [][]interface{}{
		{"quo\"te"}, {"<html>&"}, {"café", 7}, {map[string]interface{}{"to": "0x01", "data": []int{1, 2}}},
		{nil}, {3.5, true, []string{"a"}}, {json.RawMessage(`{"a": [1, 2]}`)},
	}
	for _, params := range paramSets {
		var got []byte
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(r.Body)
			got = buf.Bytes()
			_, _ = w.Write([]byte(okReply))
		}))
		c := NewClient(srv.URL)
		if err := c.Call("eth_call", nil, params...); err != nil {
			t.Fatal(err)
		}
		c.Close()
		srv.Close()

		rawParams := make([]json.RawMessage, len(params))
		for i, p := range params {
			rawParams[i], _ = json.Marshal(p)
		}
		want, err := json.Marshal(request{Version: "2.0", ID: json.RawMessage("1"), Method: "eth_call", Params: rawParams})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("params %v\nsent    %s\nmarshal %s", params, got, want)
		}
	}
}

// TestClientRefusesHugeResponse: a reply over the cap fails the call
// with a typed error and is never buffered whole — not when its length
// is announced, and not when it is streamed.
func TestClientRefusesHugeResponse(t *testing.T) {
	const size = 64 << 20
	for _, announce := range []bool{true, false} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			if announce {
				w.Header().Set("Content-Length", "67108864")
			}
			chunk := bytes.Repeat([]byte("a"), 64<<10)
			for sent := 0; sent < size; sent += len(chunk) {
				if _, err := w.Write(chunk); err != nil {
					return
				}
			}
		}))
		c := NewClient(srv.URL)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := c.Call("eth_blockNumber", nil)
		runtime.GC() // what the call retains, not the garbage a buffer left growing to the cap
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errTooLarge) {
			t.Errorf("announce=%v: want errTooLarge, got %v", announce, err)
		}
		if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 8<<20 {
			t.Errorf("announce=%v: heap grew %d KiB over a refused reply", announce, grown>>10)
		}
		t.Logf("announce=%v: %d KiB allocated, %d KiB retained", announce, (after.TotalAlloc-before.TotalAlloc)>>10, (int64(after.HeapAlloc)-int64(before.HeapAlloc))>>10)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > size/2 && !raceEnabled {
			t.Errorf("announce=%v: allocated %d KiB reading a refused reply", announce, alloc>>10)
		}
		c.Close()
		srv.Close()
	}
}

// TestLargeMessageDoesNotPinPool: one request near the cap grows a
// buffer on each end; neither goes back into the pool.
func TestLargeMessageDoesNotPinPool(t *testing.T) {
	srv, _, _ := testServer(t)
	c := NewClient(srv.URL)
	defer c.Close()
	if err := c.Call("eth_blockNumber", nil, strings.Repeat("a", maxRequestBody-1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BlockNumber(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if buf := bufPool.Get().(*bytes.Buffer); buf.Cap() > maxPooledBuf {
			t.Fatalf("pool holds a %d KiB buffer, cap is %d KiB", buf.Cap()>>10, maxPooledBuf>>10)
		}
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	return len(entries)
}

// TestCloseReleasesDescriptors: a synchronous client has no read loop
// to notice the server going away, so Close is what gives its sockets
// back.
func TestCloseReleasesDescriptors(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts /proc/self/fd")
	}
	n := newTestNode(t)
	cycle := func() {
		srv := httptest.NewServer(NewServer(n, contractAddr))
		c := NewClient(srv.URL)
		if _, err := c.BlockNumber(); err != nil {
			t.Fatal(err)
		}
		c.Close()
		srv.Close()
	}
	cycle() // the netpoller's own descriptors
	before := openFDs(t)
	for i := 0; i < 200; i++ {
		cycle()
	}
	if after := openFDs(t); after > before+2 {
		t.Fatalf("open descriptors went from %d to %d over 200 client lifetimes", before, after)
	}
}

// Round-trip allocation pins: client, kernel hop and server included,
// measured at this commit with about 10 % slack. A per-call http.Request
// or a reflection pass on either end costs dozens and fails these, and so
// does a reply head the client stops reading itself (http.ReadResponse
// costs 11). What is left is mostly net/http's server reading the request.
const (
	// measured 28; 29 while the server boxed a copy of the view's words,
	// 45 while the client read every head with http.ReadResponse and the
	// server copied the version and method and read the body through an
	// io.LimitReader it then drained again
	viewRoundTripAllocs = 31
	// measured 29; 63 while, besides, the client boxed a hex string of
	// the transaction, the server copied and hex-decoded it, decoded it
	// through an Item tree that the pool then copied, and boxed the hash's
	// hex string and a Content-Length header for the reply
	sendRoundTripAllocs = 32
)

func TestViewRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	srv, _, _ := testServer(t)
	c := NewClient(srv.URL)
	defer c.Close()
	allocs := testing.AllocsPerRun(300, func() {
		if _, err := c.View(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("sereth_view round trip: %.0f allocs", allocs)
	if allocs > viewRoundTripAllocs {
		t.Errorf("sereth_view round trip: %.0f allocs, pinned at %d", allocs, viewRoundTripAllocs)
	}
}

func TestSendRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	srv, _, owner := testServer(t)
	c := NewClient(srv.URL)
	defer c.Close()
	const runs = 300
	var raws [][]byte
	for _, tx := range chainedSets(owner, runs+1) {
		raws = append(raws, tx.EncodeRLP())
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := c.SendRawTransaction(raws[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("eth_sendRawTransaction round trip: %.0f allocs", allocs)
	if allocs > sendRoundTripAllocs {
		t.Errorf("eth_sendRawTransaction round trip: %.0f allocs, pinned at %d", allocs, sendRoundTripAllocs)
	}
}
