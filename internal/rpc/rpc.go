// Package rpc exposes a node over HTTP JSON-RPC 2.0 with a small
// Ethereum-flavoured method set plus Sereth extensions for the
// READ-UNCOMMITTED view. The server wraps a *node.Node; the client is a
// minimal typed caller used by cmd/serethnode's query mode and tests.
package rpc

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

	sem      chan struct{} // nil = unlimited in-flight requests
	inflight sync.WaitGroup
	draining atomic.Bool

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
	s := &Server{node: n, contract: contract}
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
	if s.draining.Load() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
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
	s.inflight.Add(1)
	defer s.inflight.Done()

	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return
	}
	var req request
	resp := response{Version: "2.0"}
	if err := json.Unmarshal(body, &req); err != nil {
		resp.Error = &rpcError{Code: codeParse, Message: "parse error"}
	} else {
		resp.ID = req.ID
		result, rerr := s.safeDispatch(&req)
		if rerr != nil {
			resp.Error = rerr
		} else {
			resp.Result = result
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		// Connection-level failure; nothing more to do.
		return
	}
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
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
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
		addrStr, slotStr, rerr := twoStringParams(req)
		if rerr != nil {
			return nil, rerr
		}
		addr, err := types.HexToAddress(addrStr)
		if err != nil {
			return nil, paramsErr(err)
		}
		slot, err := parseHexUint(slotStr)
		if err != nil {
			return nil, paramsErr(err)
		}
		w := s.node.StorageAt(addr, slot)
		return w.Hex(), nil

	case "eth_getTransactionCount":
		addrStr, rerr := oneStringParam(req)
		if rerr != nil {
			return nil, rerr
		}
		addr, err := types.HexToAddress(addrStr)
		if err != nil {
			return nil, paramsErr(err)
		}
		return hexUint(s.node.NonceAt(addr)), nil

	case "eth_call":
		// params: [toHex, dataHex] — read-only call with RAA on Sereth
		// nodes.
		toStr, dataStr, rerr := twoStringParams(req)
		if rerr != nil {
			return nil, rerr
		}
		to, err := types.HexToAddress(toStr)
		if err != nil {
			return nil, paramsErr(err)
		}
		data, err := decodeHexBytes(dataStr)
		if err != nil {
			return nil, paramsErr(err)
		}
		res := s.node.CallReadOnly(types.Address{}, to, data)
		if res.Err != nil {
			return nil, &rpcError{Code: codeInternal, Message: res.Err.Error()}
		}
		return "0x" + hex.EncodeToString(res.ReturnData), nil

	case "eth_sendRawTransaction":
		rawStr, rerr := oneStringParam(req)
		if rerr != nil {
			return nil, rerr
		}
		raw, err := decodeHexBytes(rawStr)
		if err != nil {
			return nil, paramsErr(err)
		}
		tx, err := types.DecodeTransaction(raw)
		if err != nil {
			return nil, paramsErr(err)
		}
		if err := s.node.SubmitTx(tx); err != nil {
			return nil, &rpcError{Code: codeInternal, Message: err.Error()}
		}
		return tx.Hash().Hex(), nil

	case "txpool_status":
		return map[string]string{"pending": hexUint(uint64(s.node.Pool().Len()))}, nil

	case "sereth_view":
		// The READ-UNCOMMITTED view of the managed variable.
		flag, mark, value := s.node.ViewAMV(types.Address{}, s.contract)
		return ViewResult{Flag: flag.Hex(), Mark: mark.Hex(), Value: value.Hex()}, nil

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

func oneStringParam(req *request) (string, *rpcError) {
	if len(req.Params) < 1 {
		return "", &rpcError{Code: codeInvalidParams, Message: "missing parameter"}
	}
	var s string
	if err := json.Unmarshal(req.Params[0], &s); err != nil {
		return "", paramsErr(err)
	}
	return s, nil
}

func twoStringParams(req *request) (string, string, *rpcError) {
	if len(req.Params) < 2 {
		return "", "", &rpcError{Code: codeInvalidParams, Message: "need two parameters"}
	}
	var a, b string
	if err := json.Unmarshal(req.Params[0], &a); err != nil {
		return "", "", paramsErr(err)
	}
	if err := json.Unmarshal(req.Params[1], &b); err != nil {
		return "", "", paramsErr(err)
	}
	return a, b, nil
}

func paramsErr(err error) *rpcError {
	return &rpcError{Code: codeInvalidParams, Message: err.Error()}
}

func hexUint(v uint64) string { return "0x" + strconv.FormatUint(v, 16) }

func parseHexUint(s string) (uint64, error) {
	s = strings.TrimPrefix(s, "0x")
	return strconv.ParseUint(s, 16, 64)
}

func decodeHexBytes(s string) ([]byte, error) {
	s = strings.TrimPrefix(s, "0x")
	return hex.DecodeString(s)
}

// DefaultTimeout bounds each HTTP round trip of a Client unless
// overridden with WithTimeout.
const DefaultTimeout = 5 * time.Second

// Client is a minimal JSON-RPC caller.
type Client struct {
	url  string
	http *http.Client
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithTimeout overrides the per-request HTTP timeout (0 disables it).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.http.Timeout = d }
}

// NewClient returns a client for the given endpoint URL.
func NewClient(url string, opts ...ClientOption) *Client {
	c := &Client{url: url, http: &http.Client{Timeout: DefaultTimeout}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// ErrRPC wraps a server-side JSON-RPC error.
var ErrRPC = errors.New("rpc error")

// ErrHTTPStatus wraps a non-200 HTTP response.
var ErrHTTPStatus = errors.New("rpc: unexpected HTTP status")

// Call performs one JSON-RPC request, decoding the result into out
// (which may be nil to discard).
func (c *Client) Call(method string, out interface{}, params ...interface{}) error {
	rawParams := make([]json.RawMessage, len(params))
	for i, p := range params {
		b, err := json.Marshal(p)
		if err != nil {
			return fmt.Errorf("marshal param %d: %w", i, err)
		}
		rawParams[i] = b
	}
	reqBody, err := json.Marshal(request{
		Version: "2.0", ID: json.RawMessage("1"), Method: method, Params: rawParams,
	})
	if err != nil {
		return err
	}
	httpResp, err := c.http.Post(c.url, "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return err
	}
	defer func() { _ = httpResp.Body.Close() }()
	if httpResp.StatusCode != http.StatusOK {
		// Drain a bounded slice of the body for the error message.
		snippet, _ := io.ReadAll(io.LimitReader(httpResp.Body, 256))
		return fmt.Errorf("%w: %d %s", ErrHTTPStatus, httpResp.StatusCode,
			strings.TrimSpace(string(snippet)))
	}
	var resp struct {
		Result json.RawMessage `json:"result"`
		Error  *rpcError       `json:"error"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if resp.Error != nil {
		return fmt.Errorf("%w: %d %s", ErrRPC, resp.Error.Code, resp.Error.Message)
	}
	if out != nil {
		return json.Unmarshal(resp.Result, out)
	}
	return nil
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

// SendRawTransaction submits an RLP-encoded signed transaction.
func (c *Client) SendRawTransaction(raw []byte) (string, error) {
	var h string
	err := c.Call("eth_sendRawTransaction", &h, "0x"+hex.EncodeToString(raw))
	return h, err
}
