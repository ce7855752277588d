package rpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sereth/internal/keccak"
	"sereth/internal/types"
)

// rawReply posts body on a fresh connection and returns the reply's head
// and body exactly as they came off the wire.
func rawReply(t *testing.T, url, body string) (head, payload []byte) {
	t.Helper()
	nc, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	if _, err := fmt.Fprintf(nc, "POST / HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading the head: %v", err)
		}
		if head = append(head, line...); string(line) == "\r\n" {
			break
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(io.MultiReader(bytes.NewReader(head), br)), nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return head, payload
}

// encoded renders a reply as encoding/json does, trailing newline included.
func encoded(t *testing.T, v interface{}) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRepliesOnTheWire: each kind of reply the server writes — a string,
// a view, a transaction hash, a series over net/http's 2 KiB buffer, an
// error and a 503 — keeps its status, its Content-Type and its body, and
// states its length: Content-Length is there, equal to the body's, and
// the body is not chunked, whether the server or net/http writes it.
func TestRepliesOnTheWire(t *testing.T) {
	srv, n, owner := testServer(t)
	sets := chainedSets(owner, 41)
	last := sets[40] // sent last, as a raw transaction
	if err := n.SubmitTxs(sets[:40]); err != nil {
		t.Fatal(err)
	}
	flag, mark, value := n.ViewAMV(types.Address{}, contractAddr)
	var series []string
	for _, node := range n.Tracker().SeriesOf(n.Pool().Pending()) {
		series = append(series, node.Mark.Hex())
	}
	ok := func(result interface{}) string {
		return encoded(t, response{Version: "2.0", ID: json.RawMessage("1"), Result: result})
	}

	shed := NewServer(n, contractAddr, WithMaxInFlight(1))
	release, entered := make(chan struct{}), make(chan struct{}, 1)
	shed.onRequest = func() {
		entered <- struct{}{}
		<-release
	}
	shedSrv := httptest.NewServer(shed)
	t.Cleanup(shedSrv.Close)
	go func() {
		if resp, err := http.Post(shedSrv.URL, "application/json", strings.NewReader(reqJSON("eth_blockNumber"))); err == nil {
			_ = resp.Body.Close()
		}
	}()
	<-entered
	defer close(release)

	for _, tc := range []struct {
		name, url, body string
		status          int
		contentType     string
		want            string
	}{
		{"string", srv.URL, reqJSON("eth_blockNumber"), 200, "application/json", ok("0x0")},
		{"view", srv.URL, reqJSON("sereth_view"), 200, "application/json",
			ok(ViewResult{Flag: flag.Hex(), Mark: mark.Hex(), Value: value.Hex()})},
		{"series over 2 KiB", srv.URL, reqJSON("sereth_series"), 200, "application/json", ok(series)},
		{"error", srv.URL, reqJSON("eth_mystery"), 200, "application/json",
			encoded(t, response{Version: "2.0", ID: json.RawMessage("1"), Error: &rpcError{Code: codeMethodNotFound, Message: "unknown method eth_mystery"}})},
		{"hash", srv.URL, reqJSON("eth_sendRawTransaction", fmt.Sprintf(`"0x%x"`, last.EncodeRLP())), 200, "application/json",
			ok(last.Hash().Hex())},
		{"503", shedSrv.URL, reqJSON("eth_blockNumber"), 503, "text/plain; charset=utf-8", "overloaded\n"},
	} {
		head, body := rawReply(t, tc.url, tc.body)
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(head)), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.status || resp.Header.Get("Content-Type") != tc.contentType || string(body) != tc.want {
			t.Errorf("%s: %d %q %q\nwant %d %q %q", tc.name, resp.StatusCode, resp.Header.Get("Content-Type"), body, tc.status, tc.contentType, tc.want)
		}
		if got := resp.Header.Values("Content-Length"); len(got) != 1 || got[0] != fmt.Sprint(len(tc.want)) || resp.TransferEncoding != nil {
			t.Errorf("%s: Content-Length %q, Transfer-Encoding %q; want %d, none", tc.name, got, resp.TransferEncoding, len(tc.want))
		}
		// The client reads every 200 head itself: a server change that
		// made it decline one would cost each call http.ReadResponse.
		if h, ok := parseHead(head); ok != (tc.status == 200) || ok && (h.length != int64(len(body)) || h.size != len(head) || h.close) {
			t.Errorf("%s: client read the head as %+v (recognised %v)", tc.name, h, ok)
		}
	}
	if len(ok(series)) <= autoLength {
		t.Fatalf("the series reply is %d bytes: it must be over %d to cover the stated length", len(ok(series)), autoLength)
	}
}

// TestSentTransactionsOwnTheirBytes: transactions sent one after another
// on one kept-alive connection are each decoded out of the request buffer
// the one before used, on both ends. What the pool keeps of each must be
// its own: the bytes it was sent as, and the hash of those bytes. The
// pool adopts the server's decoded instance, so a send costs the digests
// of one admission (TestSubmitDigestBudget's origin: five) and the reply
// reads the hash admission derived.
func TestSentTransactionsOwnTheirBytes(t *testing.T) {
	srv, n, owner := testServer(t)
	c := NewClient(srv.URL)
	defer c.Close()
	sets := chainedSets(owner, 6)
	raws := make([][]byte, len(sets))
	for i, tx := range sets {
		raws[i] = tx.EncodeRLP()
	}
	before := keccak.Invocations()
	for _, raw := range raws {
		if _, err := c.SendRawTransaction(raw); err != nil {
			t.Fatal(err)
		}
	}
	if got := keccak.Invocations() - before; got != 5*uint64(len(sets)) {
		t.Errorf("%d sends derived %d digests, want 5 each", len(sets), got)
	}
	for i, tx := range sets {
		kept := n.Pool().Get(tx.Hash())
		if kept == nil {
			t.Fatalf("transaction %d is not in the pool", i)
		}
		if enc := kept.EncodeRLP(); !bytes.Equal(enc, tx.EncodeRLP()) || kept.Hash() != types.Keccak(enc) {
			t.Fatalf("transaction %d changed in the pool after later sends: %x", i, enc)
		}
	}
}

// TestResponseHeadRecognition pins which heads parseHead reads itself.
// What it declines goes to http.ReadResponse, which FuzzResponseHead
// holds it to whenever it does not.
func TestResponseHeadRecognition(t *testing.T) {
	for head, want := range map[string]bool{
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: Thu, 01 Jan 1970 00:00:00 GMT\r\nContent-Length: 2\r\n\r\n{}": true,
		"HTTP/1.1 200 OK\r\ncontent-length:  0 \r\nConnection: close\r\n\r\n":                                                     true,
		"HTTP/1.0 200 OK\r\nContent-Length: 0\r\nConnection: Keep-Alive\r\n\r\n":                                                  true,
		"HTTP/1.1 200\r\nContent-Length: 0\r\n\r\n":                                                                               true,

		"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n":       false,
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n":      false,
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}":         false,
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}": false,
		"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}":                     false,
		"HTTP/1.1 200 OK\r\nX-A: b\r\n c\r\nContent-Length: 0\r\n\r\n":        false,
		"HTTP/1.1 200 OK\r\nContent Length: 0\r\n\r\n":                        false,
		"HTTP/1.1 200 OK\nContent-Length: 0\n\n":                              false,
		"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n":                            false,
		"HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n":                        false,
		"HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n":                       false,
		"HTTP/1.1 200 OK\r\nContent-Length: 1234567890123456789\r\n\r\n":      false,
	} {
		if _, got := parseHead([]byte(head)); got != want {
			t.Errorf("recognised=%v, want %v: %q", got, want, head)
		}
	}
}

// FuzzResponseHead: on any bytes, readHead either recognises a head —
// and http.ReadResponse accepts the same bytes with status 200, the same
// Content-Length and close flag, and leaves its reader where readHead
// left its own: at the body — or declines and consumes nothing. Seeds:
// testdata/fuzz/FuzzResponseHead (a net/http reply, chunked, Connection:
// close, HTTP/1.0, no length, a 64 KiB head, a 503 with a body, ...).
func FuzzResponseHead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		_, _ = br.Peek(1) // as send leaves it: the reply's first read done
		h, ok := readHead(br)
		rest, _ := io.ReadAll(br)
		if !ok {
			if !bytes.Equal(rest, data) {
				t.Fatalf("declined %q, and consumed %d bytes of it", data, len(data)-len(rest))
			}
			return
		}
		src := bytes.NewReader(data)
		oracle := bufio.NewReader(src)
		resp, err := http.ReadResponse(oracle, nil)
		if err != nil {
			t.Fatalf("recognised %q, which http.ReadResponse rejects: %v", data, err)
		}
		at := len(data) - src.Len() - oracle.Buffered()
		if resp.StatusCode != 200 || resp.ContentLength != h.length || resp.Close != h.close || resp.TransferEncoding != nil || at != h.size {
			t.Fatalf("%q\nrecognised as %+v\nhttp.ReadResponse: status %d, length %d, close %v, body at %d",
				data, h, resp.StatusCode, resp.ContentLength, resp.Close, at)
		}
		if !bytes.Equal(rest, data[h.size:]) {
			t.Fatalf("%q: recognised a head of %d bytes but consumed %d", data, h.size, len(data)-len(rest))
		}
	})
}
