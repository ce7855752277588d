// Package rpc exposes a node over HTTP JSON-RPC 2.0 with a small
// Ethereum-flavoured method set plus Sereth extensions for the
// READ-UNCOMMITTED view. The server wraps a *node.Node and is mounted on
// a net/http listener its owner builds (cmd/serethnode, httptest); the
// client is a minimal typed caller, used by the simulator's rpc-clients
// mode, the benchmarks and tests, that drives its own kept-alive
// connections (see Client). Both ends read and write the envelope through
// codec.go and fall back to encoding/json for what it declines.
package rpc

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sereth/internal/node"
	"sereth/internal/types"
)

// JSON-RPC 2.0 error codes.
const (
	codeParse          = -32700
	codeInvalidRequest = -32600
	codeMethodNotFound = -32601
	codeInvalidParams  = -32602
	codeInternal       = -32603
)

type request struct {
	Version string            `json:"jsonrpc"`
	ID      json.RawMessage   `json:"id"`
	Method  string            `json:"method"`
	Params  []json.RawMessage `json:"params"`

	// parseRequest filled it (plain) and kept its params here instead of
	// in Params: at most two plain quoted strings.
	plain   bool
	params  [2]json.RawMessage
	nparams int
}

type response struct {
	Version string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Result  interface{}     `json:"result,omitempty"`
	Error   *rpcError       `json:"error,omitempty"`
}

type rpcError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// ViewResult is the sereth_view response payload.
type ViewResult struct {
	Flag  string `json:"flag"`
	Mark  string `json:"mark"`
	Value string `json:"value"`
}

// Server serves JSON-RPC for one node. It is hardened for unattended
// operation: handler panics are recovered into codeInternal responses
// (a poisoned request cannot kill the node), an optional max-in-flight
// gate sheds overload with HTTP 503 (which Client reports as
// ErrHTTPStatus), GET /health answers liveness probes, and Shutdown drains
// in-flight requests before flushing and closing the node's store.
type Server struct {
	node     *node.Node
	contract types.Address

	sem chan struct{} // nil = unlimited in-flight requests

	// Every request holds gate shared while it runs. Shutdown takes it
	// exclusively and never gives it back: that waits for each holder,
	// and every later TryRLock fails, so no request slips between the
	// draining test and its registration.
	gate     sync.RWMutex
	draining atomic.Bool
	drain    sync.Once
	drained  chan struct{} // closed once Shutdown holds gate

	// onRequest, when set, runs at the start of every dispatched
	// request — a test hook for wedging or crashing the handler path.
	onRequest func()
}

var _ http.Handler = (*Server)(nil)

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithMaxInFlight caps concurrently served requests at n; excess
// requests are shed immediately with HTTP 503 rather than queueing
// without bound. n <= 0 leaves the server unlimited.
func WithMaxInFlight(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.sem = make(chan struct{}, n)
		}
	}
}

// NewServer wraps a node.
func NewServer(n *node.Node, contract types.Address, opts ...ServerOption) *Server {
	s := &Server{node: n, contract: contract, drained: make(chan struct{})}
	for _, o := range opts {
		o(s)
	}
	return s
}

// healthPath is the liveness endpoint served alongside JSON-RPC.
const healthPath = "/health"

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == healthPath && r.Method == http.MethodGet {
		s.serveHealth(w)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.draining.Load() || !s.gate.TryRLock() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	defer s.gate.RUnlock()
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			// Shed rather than queue: the caller sees a 503 at once
			// and decides whether to come back, so a burst costs the
			// node a bounded number of goroutines.
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
	}

	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuf(buf)
	err := readBody(buf, r.Body)
	_ = r.Body.Close() // read to its end: net/http then has nothing to drain
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return
	}
	req, ok := parseRequest(buf.Bytes())
	if !ok {
		slow := new(request) // what json.Unmarshal is handed escapes
		err = json.Unmarshal(buf.Bytes(), slow)
		req = *slow
	}
	resp := response{Version: "2.0"}
	if err != nil {
		resp.Error = &rpcError{Code: codeParse, Message: "parse error"}
	} else {
		resp.ID = req.ID
		resp.Result, resp.Error = s.safeDispatch(&req)
	}
	w.Header()["Content-Type"] = jsonContentType
	if resp.Error == nil {
		// The reply goes behind the request in the same buffer: req.ID
		// may still point into the request.
		if reply, ok := appendReply(buf.AvailableBuffer(), req.ID, resp.Result); ok {
			if len(reply) > autoLength {
				w.Header()["Content-Length"] = []string{strconv.Itoa(len(reply))}
			}
			_, _ = w.Write(reply) // a connection-level failure; nothing more to do
			return
		}
	}
	_ = json.NewEncoder(w).Encode(resp) // likewise
}

var jsonContentType = []string{"application/json"}

// autoLength is the longest reply net/http writes a Content-Length for
// by itself (its bufferBeforeChunkingSize): a handler that returns with
// the whole reply still buffered. A longer one states it, or goes chunked.
const autoLength = 2048

// readBody reads into buf what buf.ReadFrom(io.LimitReader(body,
// maxRequestBody)) would, without allocating the limiting reader.
func readBody(buf *bytes.Buffer, body io.Reader) error {
	for buf.Len() < maxRequestBody {
		buf.Grow(bytes.MinRead)
		b := buf.AvailableBuffer()
		n, err := body.Read(b[:min(cap(b), maxRequestBody-buf.Len())])
		buf.Write(b[:n])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// serveHealth answers the liveness probe: 200 with chain height while
// serving, 503 once draining.
func (s *Server) serveHealth(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]interface{}{
		"status": status,
		"height": s.node.Chain().Height(),
		"boot":   s.node.BootSource().String(),
	})
}

// safeDispatch runs dispatch under panic recovery. A handler panic —
// e.g. the trie layer's mustResolve on a store that lost a node — is
// degraded to a codeInternal error response instead of unwinding the
// whole process.
func (s *Server) safeDispatch(req *request) (result interface{}, rerr *rpcError) {
	defer func() {
		if p := recover(); p != nil {
			result = nil
			rerr = &rpcError{Code: codeInternal, Message: fmt.Sprintf("internal error: %v", p)}
		}
	}()
	if s.onRequest != nil {
		s.onRequest()
	}
	return s.dispatch(req)
}

// Shutdown drains the server, waits for in-flight requests (bounded by
// ctx), then flushes and closes the node's store. New requests are
// refused with 503 from the moment Shutdown is called, so a fronting
// http.Server can finish writing responses already in progress.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drain.Do(func() {
		s.draining.Store(true)
		go func() {
			s.gate.Lock()
			close(s.drained)
		}()
	})
	select {
	case <-s.drained:
	case <-ctx.Done():
		// Close the store anyway — everything persisted so far is
		// consistent; the laggard requests are read paths.
		if err := s.node.Close(); err != nil {
			return err
		}
		return ctx.Err()
	}
	return s.node.Close()
}

func (s *Server) dispatch(req *request) (interface{}, *rpcError) {
	switch req.Method {
	case "eth_blockNumber":
		return hexUint(s.node.Chain().Height()), nil

	case "eth_getStorageAt":
		// params: [contractHex, slotHex]
		p, rerr := stringParams(req, 2)
		if rerr != nil {
			return nil, rerr
		}
		addr, err := types.HexToAddress(string(p[0]))
		if err != nil {
			return nil, paramsErr(err)
		}
		slot, err := parseHexUint(string(p[1]))
		if err != nil {
			return nil, paramsErr(err)
		}
		w := s.node.StorageAt(addr, slot)
		return w.Hex(), nil

	case "eth_getTransactionCount":
		p, rerr := stringParams(req, 1)
		if rerr != nil {
			return nil, rerr
		}
		addr, err := types.HexToAddress(string(p[0]))
		if err != nil {
			return nil, paramsErr(err)
		}
		return hexUint(s.node.NonceAt(addr)), nil

	case "eth_call":
		// params: [toHex, dataHex] — read-only call with RAA on Sereth
		// nodes.
		p, rerr := stringParams(req, 2)
		if rerr != nil {
			return nil, rerr
		}
		to, err := types.HexToAddress(string(p[0]))
		if err != nil {
			return nil, paramsErr(err)
		}
		data, err := unhex(p[1])
		if err != nil {
			return nil, paramsErr(err)
		}
		res := s.node.CallReadOnly(types.Address{}, to, data)
		if res.Err != nil {
			return nil, &rpcError{Code: codeInternal, Message: res.Err.Error()}
		}
		return "0x" + hex.EncodeToString(res.ReturnData), nil

	case "eth_sendRawTransaction":
		p, rerr := stringParams(req, 1)
		if rerr != nil {
			return nil, rerr
		}
		raw, err := unhex(p[0])
		if err != nil {
			return nil, paramsErr(err)
		}
		tx, err := types.DecodeTransaction(raw)
		if err != nil {
			return nil, paramsErr(err)
		}
		// The decoded instance is the server's own: memoized, the pool
		// adopts it instead of copying it again.
		if err := s.node.SubmitTx(tx.Memoize()); err != nil {
			return nil, &rpcError{Code: codeInternal, Message: err.Error()}
		}
		return txHash{tx}, nil

	case "txpool_status":
		return map[string]string{"pending": hexUint(uint64(s.node.Pool().Len()))}, nil

	case "sereth_view":
		// The READ-UNCOMMITTED view of the managed variable.
		flag, mark, value := s.node.ViewAMV(types.Address{}, s.contract)
		return viewWords{flag, mark, value}, nil

	case "sereth_series":
		// Pending series marks, head to tail (empty on geth nodes).
		tracker := s.node.Tracker()
		if tracker == nil {
			return []string{}, nil
		}
		nodes := tracker.SeriesOrSnapshot(s.node.Pool().Pending)
		marks := make([]string, len(nodes))
		for i, n := range nodes {
			marks[i] = n.Mark.Hex()
		}
		return marks, nil

	default:
		return nil, &rpcError{Code: codeMethodNotFound, Message: "unknown method " + req.Method}
	}
}

// stringParams decodes the first n parameters, of at most two, as
// strings. The bytes are the server's own to edit: a plain param's are
// the request body's between the quotes, any other's a fresh copy.
func stringParams(req *request, n int) (p [2][]byte, rerr *rpcError) {
	count := len(req.Params)
	if req.plain {
		count = req.nparams
	}
	if count < n {
		return p, &rpcError{Code: codeInvalidParams, Message: [...]string{1: "missing parameter", 2: "need two parameters"}[n]}
	}
	for i := 0; i < n && rerr == nil; i++ {
		p[i], rerr = stringParam(req, i)
	}
	return p, rerr
}

func stringParam(req *request, i int) ([]byte, *rpcError) {
	if req.plain {
		v := req.params[i]
		return v[1 : len(v)-1], nil
	}
	var s string
	if err := json.Unmarshal(req.Params[i], &s); err != nil {
		return nil, paramsErr(err)
	}
	return []byte(s), nil
}

func paramsErr(err error) *rpcError {
	return &rpcError{Code: codeInvalidParams, Message: err.Error()}
}

func hexUint(v uint64) string { return "0x" + strconv.FormatUint(v, 16) }

func parseHexUint(s string) (uint64, error) {
	s = strings.TrimPrefix(s, "0x")
	return strconv.ParseUint(s, 16, 64)
}

// unhex decodes in place the hex of s, 0x-prefixed or not, as
// hex.DecodeString decodes a copy, and returns the bytes it spells.
func unhex(s []byte) ([]byte, error) {
	s = bytes.TrimPrefix(s, []byte("0x"))
	n, err := hex.Decode(s, s)
	return s[:n], err
}
