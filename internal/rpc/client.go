package rpc

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// DefaultTimeout bounds each round trip of a Client, dial included,
// unless overridden with WithTimeout.
const DefaultTimeout = 5 * time.Second

// maxIdleConns is how many connections a Client keeps between calls.
const maxIdleConns = 8

// Client is a minimal JSON-RPC caller for http:// endpoints. A call runs
// on its caller's goroutine and holds one kept-alive connection for the
// round trip: head and body leave in one Write, the reply is read off the
// same socket. Connections wait in a small idle list between calls, so a
// Client may be shared. Nothing watches an idle connection: one the server
// closed is found out, and replaced, by the next call, or dropped by Close.
type Client struct {
	addr    string // host:port to dial
	head    []byte // a request up to its body, the Content-Length digits zero
	err     error  // why the endpoint cannot be called, if it cannot
	timeout time.Duration

	mu   sync.Mutex
	idle []*conn
}

type conn struct {
	net.Conn
	br *bufio.Reader
	lr io.LimitedReader // caps a body http.ReadResponse reads
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithTimeout overrides the per-call timeout (0 disables it).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// NewClient returns a client for the given http:// endpoint URL; any
// other kind of URL is reported by the first Call.
func NewClient(endpoint string, opts ...ClientOption) *Client {
	c := &Client{timeout: DefaultTimeout}
	if u, err := url.Parse(endpoint); err != nil || u.Scheme != "http" || u.Host == "" {
		c.err = fmt.Errorf("%w: %q", errEndpoint, endpoint)
	} else {
		if c.addr = u.Host; u.Port() == "" {
			c.addr = net.JoinHostPort(u.Hostname(), "80")
		}
		// Seven digits hold maxRequestBody; do fills them in.
		c.head = []byte("POST " + u.RequestURI() + " HTTP/1.1\r\nHost: " + u.Host +
			"\r\nContent-Type: application/json\r\nContent-Length: 0000000\r\n\r\n")
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Close drops the client's idle connections. The client stays usable.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cn := range c.idle {
		_ = cn.Close()
	}
	c.idle = nil
}

// ErrRPC wraps a server-side JSON-RPC error.
var ErrRPC = errors.New("rpc error")

// ErrHTTPStatus wraps a non-200 HTTP response.
var ErrHTTPStatus = errors.New("rpc: unexpected HTTP status")

var (
	errEndpoint = errors.New("rpc: endpoint is not an http:// URL")
	errTooLarge = errors.New("rpc: message over the size cap")
)

// Call performs one JSON-RPC request, decoding the result into out
// (which may be nil to discard).
func (c *Client) Call(method string, out interface{}, params ...interface{}) error {
	if c.err != nil {
		return c.err
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	req, ok := appendRequest(append(buf.AvailableBuffer(), c.head...), method, params)
	if !ok {
		body, err := json.Marshal(struct {
			request
			Params []interface{} `json:"params"`
		}{request{Version: "2.0", ID: json.RawMessage("1"), Method: method}, params})
		if err != nil {
			return err
		}
		req = append(req[:len(c.head)], body...)
	}
	return c.roundTrip(buf, req, out)
}

// roundTrip sends req, built in buf's spare room behind nothing else,
// and decodes the result of the reply into out.
func (c *Client) roundTrip(buf *bytes.Buffer, req []byte, out interface{}) error {
	n := len(req) - len(c.head)
	if n > maxRequestBody {
		return fmt.Errorf("request: %w", errTooLarge)
	}
	for i := len(c.head) - 5; n > 0; i, n = i-1, n/10 {
		req[i] = byte('0' + n%10)
	}
	buf.Write(req) // a request that outgrew buf grows it for the next one
	var deadline time.Time
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	cn, err := c.send(req, deadline, false)
	if err != nil {
		return err
	}
	buf.Reset() // the request is sent: its bytes make room for the reply
	closing, err := cn.readReply(buf)
	keep := err == nil && !closing
	c.mu.Lock()
	if keep = keep && len(c.idle) < maxIdleConns; keep {
		c.idle = append(c.idle, cn)
	}
	c.mu.Unlock()
	if !keep {
		_ = cn.Close()
	}
	if err != nil || parseReply(buf.Bytes(), out) {
		return err
	}
	var reply struct {
		Result json.RawMessage `json:"result"`
		Error  *rpcError       `json:"error"`
	}
	if err := json.NewDecoder(buf).Decode(&reply); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if reply.Error != nil {
		return fmt.Errorf("%w: %d %s", ErrRPC, reply.Error.Code, reply.Error.Message)
	}
	if out != nil {
		return json.Unmarshal(reply.Result, out)
	}
	return nil
}

// readReply reads a 200 reply's body into buf and reports whether the
// server closes the connection after it. A head readHead recognises is
// consumed here; any other is http.ReadResponse's, which reports a
// non-200 status with the start of its body.
func (cn *conn) readReply(buf *bytes.Buffer) (closing bool, err error) {
	if h, ok := readHead(cn.br); ok {
		if h.length > maxResponseBody {
			return true, fmt.Errorf("response: %w", errTooLarge)
		}
		buf.Grow(int(h.length))
		body := buf.AvailableBuffer()[:h.length]
		_, err = io.ReadFull(cn.br, body)
		buf.Write(body)
		return h.close, err
	}
	resp, err := http.ReadResponse(cn.br, nil)
	switch {
	case err != nil:
		return true, err
	case resp.StatusCode != http.StatusOK:
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		err = fmt.Errorf("%w: %d %s", ErrHTTPStatus, resp.StatusCode, strings.TrimSpace(string(snippet)))
	case resp.ContentLength > maxResponseBody:
		err = fmt.Errorf("response: %w", errTooLarge)
	default:
		cn.lr = io.LimitedReader{R: resp.Body, N: maxResponseBody + 1}
		if _, err = buf.ReadFrom(&cn.lr); err == nil && buf.Len() > maxResponseBody {
			err = fmt.Errorf("response: %w", errTooLarge)
		}
	}
	return resp.Close, err
}

// replyHead is what Call needs of a reply's head.
type replyHead struct {
	length int64 // Content-Length
	close  bool  // the server closes the connection after the body
	size   int   // the head's bytes, blank line included
}

// readHead recognises the head of a 200 reply with a Content-Length in
// the bytes br already holds and consumes it, or declines and consumes
// nothing. The reply of a net/http server to a request that fits one
// packet arrives whole, so that is the common case.
func readHead(br *bufio.Reader) (replyHead, bool) {
	window, _ := br.Peek(br.Buffered())
	h, ok := parseHead(window)
	if ok {
		_, _ = br.Discard(h.size) // buffered, so it cannot fail
	}
	return h, ok
}

// parseHead reads a head at the front of b as http.ReadResponse reads it,
// when it is one of the simple kind a net/http server writes: an HTTP/1.0
// or HTTP/1.1 status line with status 200, then CRLF-terminated
// "Key: value" lines of visible ASCII, one of them Content-Length, none a
// Transfer-Encoding, then a blank line. It declines anything else: another
// status, a missing or repeated length, a folded line, a key
// http.ReadResponse would not canonicalize, a head that does not end in b.
func parseHead(b []byte) (h replyHead, ok bool) {
	status, rest, ok := cutLine(b)
	if !ok || len(status) < 12 || string(status[:7]) != "HTTP/1." || status[7] != '0' && status[7] != '1' ||
		string(status[8:12]) != " 200" || len(status) > 12 && status[12] != ' ' {
		return h, false
	}
	keepAlive, lengths := false, 0
	for {
		var line []byte
		if line, rest, ok = cutLine(rest); !ok {
			return h, false
		}
		if len(line) == 0 {
			break
		}
		key, value, ok := bytes.Cut(line, []byte(":"))
		if !ok || !headerKey(key) {
			return h, false
		}
		value = bytes.Trim(value, " \t")
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			if lengths++; len(value) == 0 || len(value) > 18 {
				return h, false // a length of 18 digits fits 63 bits
			}
			h.length = 0
			for _, c := range value {
				if c < '0' || c > '9' {
					return h, false
				}
				h.length = h.length*10 + int64(c-'0')
			}
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			return h, false
		case bytes.EqualFold(key, []byte("Connection")):
			h.close = h.close || hasToken(value, "close")
			keepAlive = keepAlive || hasToken(value, "keep-alive")
		}
	}
	if lengths != 1 {
		return h, false
	}
	h.close = h.close || status[7] == '0' && !keepAlive // HTTP/1.0 closes unless asked not to
	h.size = len(b) - len(rest)
	return h, true
}

// cutLine cuts a CRLF-terminated line of visible ASCII, spaces and tabs
// — the bytes a header value may hold — off the front of b.
func cutLine(b []byte) (line, rest []byte, ok bool) {
	for i, c := range b {
		switch {
		case c == '\r':
			if i+1 == len(b) || b[i+1] != '\n' {
				return nil, nil, false
			}
			return b[:i], b[i+2:], true
		case c != '\t' && (c < 0x20 || c > 0x7e):
			return nil, nil, false
		}
	}
	return nil, nil, false
}

// headerKey reports whether k is a non-empty run of letters, digits and
// dashes: a key http.ReadResponse canonicalizes, so that it names
// Content-Length whatever its case exactly when EqualFold says so.
func headerKey(k []byte) bool {
	for _, c := range k {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-') {
			return false
		}
	}
	return len(k) > 0
}

// hasToken reports whether the comma-separated list v holds token,
// case-insensitively, as net/http reads a Connection header.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		var t []byte
		t, v, _ = bytes.Cut(v, []byte(","))
		if bytes.EqualFold(bytes.Trim(t, " \t"), []byte(token)) {
			return true
		}
	}
	return false
}

// send writes req on a connection — an idle one unless fresh — and waits
// for the first byte of the response. A reused connection that yields
// none, because the server closed it while it idled, is replaced once by
// a dialled one: what net/http does for a POST.
func (c *Client) send(req []byte, deadline time.Time, fresh bool) (*conn, error) {
	var cn *conn
	c.mu.Lock()
	if n := len(c.idle); n > 0 && !fresh {
		cn, c.idle = c.idle[n-1], c.idle[:n-1]
	}
	c.mu.Unlock()
	reused := cn != nil
	if !reused {
		nc, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", c.addr)
		if err != nil {
			return nil, err
		}
		cn = &conn{Conn: nc, br: bufio.NewReader(nc)}
	}
	_ = cn.SetDeadline(deadline) // fails on a closed socket only, as Write then does
	_, err := cn.Write(req)
	if err == nil {
		_, err = cn.br.Peek(1)
	}
	if err == nil {
		return cn, nil
	}
	_ = cn.Close()
	var ne net.Error
	if timedOut := errors.As(err, &ne) && ne.Timeout(); reused && !timedOut {
		return c.send(req, deadline, true)
	}
	return nil, err
}

// BlockNumber fetches the chain height.
func (c *Client) BlockNumber() (uint64, error) {
	var s string
	if err := c.Call("eth_blockNumber", &s); err != nil {
		return 0, err
	}
	return parseHexUint(s)
}

// View fetches the node's READ-UNCOMMITTED view.
func (c *Client) View() (ViewResult, error) {
	var v ViewResult
	err := c.Call("sereth_view", &v)
	return v, err
}

// SendRawTransaction submits an RLP-encoded signed transaction. The
// transaction's hex goes straight into the request, which is the one
// Call would send with its 0x string.
func (c *Client) SendRawTransaction(raw []byte) (string, error) {
	var h string
	if c.err != nil {
		return h, c.err
	}
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	req, _ := appendCall(append(buf.AvailableBuffer(), c.head...), "eth_sendRawTransaction")
	req = append(hex.AppendEncode(append(req, `"0x`...), raw), `"]}`...)
	err := c.roundTrip(buf, req, &h)
	return h, err
}
