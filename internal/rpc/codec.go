package rpc

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"sync"

	"sereth/internal/types"
)

// The codec reads and writes, without reflection, the request shape every
// client in this repo emits and the success replies the server sends. What
// else a recogniser meets — a string escape, a byte outside printable
// ASCII, a non-string param, a repeated or unknown key, an error reply — it
// declines, and the caller takes the encoding/json path: the fallback, and
// the oracle the fuzz targets hold the recognisers to.

const (
	maxRequestBody  = 1 << 20  // the server reads no more of a request
	maxResponseBody = 4 << 20  // the client buffers no more of a reply
	maxPooledBuf    = 64 << 10 // a buffer grown past this is not pooled
)

// A pooled buffer carries a call's request, then its response, on either end.
var bufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

func putBuf(buf *bytes.Buffer) {
	if buf.Reset(); buf.Cap() <= maxPooledBuf {
		bufPool.Put(buf)
	}
}

// plainByte reports whether c stands for itself inside a JSON string
// both to json.Unmarshal and to json.Encoder, which escapes <, > and &.
func plainByte(c byte) bool {
	return c >= 0x20 && c <= 0x7e && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

func appendString(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			return b, false
		}
	}
	return append(append(append(b, '"'), s...), '"'), true
}

// scanner walks a message. An unmet want sets bad, after which what the
// scanner returns means nothing: callers check ok at the end.
type scanner struct {
	b   []byte
	i   int
	bad bool
}

// eat skips whitespace and consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\n' || s.b[s.i] == '\r') {
		s.i++
	}
	if s.i == len(s.b) || s.b[s.i] != c {
		return false
	}
	s.i++
	return true
}

func (s *scanner) want(c byte) { s.bad = !s.eat(c) || s.bad }

// ok reports whether every want was met and only whitespace is left.
func (s *scanner) ok() bool {
	s.eat(' ') // whitespace never follows the whitespace eat skips
	return !s.bad && s.i == len(s.b)
}

// str wants a string of plain bytes and returns it, quotes included.
func (s *scanner) str() []byte {
	s.want('"')
	start := s.i - 1
	for s.i < len(s.b) && plainByte(s.b[s.i]) {
		s.i++
	}
	if s.bad = s.bad || s.i == len(s.b) || s.b[s.i] != '"'; s.bad {
		return nil
	}
	s.i++
	return s.b[start:s.i]
}

// unquote copies a string str returned, or nothing if it returned none.
func unquote(v []byte) string { return string(v[min(1, len(v)) : max(1, len(v))-1]) }

// known are the strings a request names without a copy: the protocol
// version and the methods dispatch answers.
var known = [...]string{"2.0", "eth_blockNumber", "eth_getStorageAt", "eth_getTransactionCount",
	"eth_call", "eth_sendRawTransaction", "txpool_status", "sereth_view", "sereth_series"}

// intern is unquote returning the known string it spells, if any.
func intern(v []byte) string {
	v = v[min(1, len(v)) : max(1, len(v))-1]
	for _, k := range known {
		if string(v) == k {
			return k
		}
	}
	return string(v)
}

// params wants an array of at most two such strings and keeps them in
// req's two slots.
func (s *scanner) params(req *request) {
	s.want('[')
	for !s.bad && !s.eat(']') {
		if req.nparams > 0 {
			s.want(',')
		}
		if req.nparams == len(req.params) {
			s.bad = true // no method takes a third
			return
		}
		req.params[req.nparams] = s.str()
		req.nparams++
	}
}

// id wants an integer request id, which json.Encoder writes back as is.
func (s *scanner) id() []byte {
	neg := s.eat('-')
	digits := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	s.bad = s.bad || s.i == digits || (s.b[digits] == '0' && s.i > digits+1)
	if neg {
		digits--
	}
	return s.b[digits:s.i]
}

// parseRequest recognises the canonical request envelope and fills a
// request as json.Unmarshal would, except that ID aliases b, the params
// are in req.params, aliasing b too, and plain is set.
func parseRequest(b []byte) (request, bool) {
	req := request{plain: true}
	s := scanner{b: b}
	s.want('{')
	for seen := 0; !s.bad && !s.eat('}'); {
		if seen != 0 {
			s.want(',')
		}
		key, bit := s.str(), 0
		s.want(':')
		switch string(key) {
		case `"jsonrpc"`:
			bit, req.Version = 1, intern(s.str())
		case `"id"`:
			bit, req.ID = 2, s.id()
		case `"method"`:
			bit, req.Method = 4, intern(s.str())
		case `"params"`:
			bit = 8
			s.params(&req)
		}
		s.bad = s.bad || bit&^seen == 0 // not a known key met for the first time
		seen |= bit
	}
	return req, s.ok()
}

// viewWords is the sereth_view result: appendReply writes the words' hex
// straight into the reply, encoding/json sees the ViewResult they make.
// The server hands them over by pointer, taken from viewPool and put back
// once the reply is written, so a reply boxes no copy of the words.
type viewWords struct{ flag, mark, value types.Word }

var viewPool = sync.Pool{New: func() interface{} { return new(viewWords) }}

func (v viewWords) MarshalJSON() ([]byte, error) {
	return json.Marshal(ViewResult{Flag: v.flag.Hex(), Mark: v.mark.Hex(), Value: v.value.Hex()})
}

// txHash is the eth_sendRawTransaction result: appendReply writes the
// hex of the admitted transaction's hash straight into the reply,
// encoding/json sees the string. One pointer, it is boxed without a copy.
type txHash struct{ tx *types.Transaction }

func (h txHash) MarshalJSON() ([]byte, error) { return json.Marshal(h.tx.Hash().Hex()) }

// appendReply appends the success reply to request id exactly as
// json.Encoder renders response{Version: "2.0", ID: id, Result: result},
// or declines an id or a result it would not render identically.
func appendReply(b []byte, id json.RawMessage, result interface{}) ([]byte, bool) {
	s := scanner{b: id}
	if id == nil {
		id = json.RawMessage("null")
	} else if len(s.id()) != len(id) || !s.ok() {
		return b, false
	}
	b = append(append(append(b, `{"jsonrpc":"2.0","id":`...), id...), `,"result":`...)
	ok := true
	switch r := result.(type) {
	case string:
		b, ok = appendString(b, r)
	case *viewWords:
		b = hex.AppendEncode(append(b, `{"flag":"0x`...), r.flag[:])
		b = hex.AppendEncode(append(b, `","mark":"0x`...), r.mark[:])
		b = hex.AppendEncode(append(b, `","value":"0x`...), r.value[:])
		b = append(b, `"}`...)
	case txHash:
		h := r.tx.Hash()
		b = append(hex.AppendEncode(append(b, `"0x`...), h[:]), '"')
	case []string:
		b, ok = append(b, '['), r != nil
		for i := 0; i < len(r) && ok; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b, ok = appendString(b, r[i])
		}
		b = append(b, ']')
	default:
		ok = false
	}
	return append(b, "}\n"...), ok
}

// appendRequest appends the envelope json.Marshal renders for a call
// with id 1, or declines a param that is not a plain string.
func appendRequest(b []byte, method string, params []interface{}) ([]byte, bool) {
	b, ok := appendCall(b, method)
	for i := 0; i < len(params) && ok; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		p, isString := params[i].(string)
		if b, ok = appendString(b, p); !isString {
			ok = false
		}
	}
	return append(b, "]}"...), ok
}

// appendCall appends that envelope up to its first param.
func appendCall(b []byte, method string) ([]byte, bool) {
	b, ok := appendString(append(b, `{"jsonrpc":"2.0","id":1,"method":`...), method)
	return append(b, `,"params":[`...), ok
}

// parseReply recognises a success reply to id 1 whose result has out's
// shape and stores it; out is untouched when it declines.
func parseReply(b []byte, out interface{}) bool {
	const head = `{"jsonrpc":"2.0","id":1,"result":`
	if !bytes.HasPrefix(b, []byte(head)) {
		return false
	}
	s := scanner{b: b, i: len(head)}
	switch o := out.(type) {
	case *string:
		v := s.str()
		if s.want('}'); s.ok() {
			*o = unquote(v)
		}
	case *ViewResult:
		var w [3][]byte
		s.want('{')
		for i, name := range [...]string{`"flag"`, `"mark"`, `"value"`} {
			if i > 0 {
				s.want(',')
			}
			s.bad = string(s.str()) != name || s.bad
			s.want(':')
			w[i] = s.str()
		}
		s.want('}')
		if s.want('}'); s.ok() {
			*o = ViewResult{Flag: unquote(w[0]), Mark: unquote(w[1]), Value: unquote(w[2])}
		}
	default:
		return false
	}
	return s.ok()
}
