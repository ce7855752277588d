package rpc

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/statedb"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// The recognisers in codec.go are held to encoding/json: whatever one
// accepts, it must read or write exactly as the json path it stands in
// for. The seeds are under testdata/fuzz, one directory per target: the
// TestDispatchSurface bodies, other key orders, whitespace, escapes,
// duplicate and unknown keys, huge and odd ids, nested and non-string
// params, trailing bytes, signed transactions; replies of every shape and
// near-shape. `go test` replays them; `make serving-smoke` fuzzes each
// target for 30 s.

// TestRequestRecognition pins which bodies parseRequest takes. The
// canonical envelope must be among them, or every call silently pays for
// encoding/json again. A repeated key must decline: encoding/json lets
// the last one win, as a mutated recogniser would, so the differential
// below cannot tell, and a stricter reader (json/v2 rejects repeats) must
// not find this one more lenient than itself.
func TestRequestRecognition(t *testing.T) {
	for body, want := range map[string]bool{
		reqJSON("sereth_view"): true,
		reqJSON("eth_getStorageAt", `"0x00000000000000000000000000000000000000cc"`, `"0x2"`):              true,
		`{"method":"sereth_view","params":[],"id":-7,"jsonrpc":"2.0"}`:                                    true,
		"{ \"jsonrpc\" : \"2.0\" ,\n\t\"id\" : 1 , \"method\" : \"sereth_view\" , \"params\" : [ ] }\r\n": true,
		`{"jsonrpc":"2.0","id":1,"method":"sereth_view"}`:                                                 true,
		`{}`: true,

		`{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","method":"sereth_view"}`: false,
		`{"jsonrpc":"2.0","id":1,"id":1,"method":"sereth_view"}`:                     false,
		`{"jsonrpc":"2.0","id":1,"method":"sereth_view","params":[],"params":[]}`:    false,
		`{"jsonrpc":"2.0","jsonrpc":"2.0","id":1,"method":"sereth_view"}`:            false,
		`{"jsonrpc":"2.0","id":1,"method":"sereth_view","extra":"x"}`:                false,
		`{"jsonrpc":"2.0","id":1,"Method":"sereth_view"}`:                            false,
		`{"jsonrpc":"2.0","id":"a","method":"sereth_view"}`:                          false,
		`{"jsonrpc":"2.0","id":null,"method":"sereth_view"}`:                         false,
		`{"jsonrpc":"2.0","id":1.0,"method":"sereth_view"}`:                          false,
		`{"jsonrpc":"2.0","id":1,"method":"sereth\u005fview"}`:                       false,
		`{"jsonrpc":"2.0","id":1,"method":"eth_call","params":[7]}`:                  false,
		`{"jsonrpc":"2.0","id":1,"method":"eth_call","params":[["0x"]]}`:             false,
		`{"jsonrpc":"2.0","id":1,"method":"eth_call","params":null}`:                 false,
		`[{"jsonrpc":"2.0","id":1,"method":"sereth_view"}]`:                          false,
	} {
		if _, got := parseRequest([]byte(body)); got != want {
			t.Errorf("recognised=%v, want %v: %s", got, want, body)
		}
	}
}

func sameRaw(a, b []byte) bool { return (a == nil) == (b == nil) && bytes.Equal(a, b) }

// FuzzRequestEnvelope: on arbitrary bytes parseRequest either declines
// or fills a request exactly as json.Unmarshal does — its params in the
// two slots, where json.Unmarshal fills Params — and its params read as
// the same strings.
func FuzzRequestEnvelope(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := parseRequest(data)
		if !ok {
			return
		}
		var want request
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("recognised %q, which encoding/json rejects: %v", data, err)
		}
		if got.Version != want.Version || got.Method != want.Method || !sameRaw(got.ID, want.ID) ||
			got.Params != nil || got.nparams != len(want.Params) {
			t.Fatalf("%q\nrecognised as %+v\nencoding/json %+v", data, got, want)
		}
		for i := range want.Params {
			g, gerr := stringParam(&got, i)
			w, werr := stringParam(&want, i)
			if !bytes.Equal(got.params[i], want.Params[i]) || !bytes.Equal(g, w) || gerr != nil || werr != nil {
				t.Fatalf("%q param %d: recognised %q (%v), encoding/json %q (%v)", data, i, g, gerr, w, werr)
			}
		}
	})
}

// wordOf stretches s over a word.
func wordOf(s string) (w types.Word) {
	copy(w[:], s)
	return w
}

// FuzzResponseEncode: for any id and result strings appendReply either
// declines or appends json.Encoder's rendering byte for byte, trailing
// newline included; ids and strings json would escape must decline. What
// it appends, parseReply reads back.
func FuzzResponseEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, id string, kind uint8, a, b, c string) {
		var rawID json.RawMessage
		if id != "" {
			if rawID = json.RawMessage(id); !json.Valid(rawID) {
				return // no request yields such an id
			}
		}
		var result interface{}
		switch kind % 6 {
		case 0:
			result = a
		case 1:
			result = viewWords{wordOf(a), wordOf(b), wordOf(c)}
		case 2:
			result = []string{a, b, c}[:int(kind/6)%4]
		case 3:
			result = []string(nil)
		case 4:
			result = map[string]string{"pending": a}
		case 5:
			result = ViewResult{Flag: a, Mark: b, Value: c} // never dispatched; must decline
		}
		got, ok := appendReply([]byte("prefix"), rawID, result)
		if !ok {
			return
		}
		var want bytes.Buffer
		want.WriteString("prefix")
		if err := json.NewEncoder(&want).Encode(response{Version: "2.0", ID: rawID, Result: result}); err != nil {
			t.Fatalf("appended %q for a result encoding/json rejects: %v", got, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("id %q result %#v\nappended      %q\nencoding/json %q", id, result, got, want.Bytes())
		}
		if id != "1" {
			return
		}
		switch r := result.(type) {
		case string:
			var back string
			if !parseReply(got[6:], &back) || back != r {
				t.Fatalf("reply %q read back as %q", got, back)
			}
		case viewWords:
			var back ViewResult
			if want := (ViewResult{r.flag.Hex(), r.mark.Hex(), r.value.Hex()}); !parseReply(got[6:], &back) || back != want {
				t.Fatalf("reply %q read back as %+v", got, back)
			}
		}
	})
}

// decodeReplyJSON is the encoding/json reading of a reply: what the
// client did before parseReply, and still does when parseReply declines.
func decodeReplyJSON(body []byte, out interface{}) error {
	var resp struct {
		Result json.RawMessage `json:"result"`
		Error  *rpcError       `json:"error"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&resp); err != nil {
		return err
	}
	if resp.Error != nil {
		return ErrRPC
	}
	return json.Unmarshal(resp.Result, out)
}

// FuzzResponseDecode: on arbitrary bytes parseReply either declines and
// leaves out alone, or stores what the encoding/json path would.
func FuzzResponseDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(got, want, zero interface{}) {
			ok := parseReply(data, got)
			if !ok {
				if !reflect.DeepEqual(got, zero) {
					t.Fatalf("%q: declined, but stored %+v", data, got)
				}
				return
			}
			if err := decodeReplyJSON(data, want); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%q\nrecognised as %+v\nencoding/json %+v (%v)", data, got, want, err)
			}
		}
		check(new(string), new(string), new(string))
		check(new(ViewResult), new(ViewResult), new(ViewResult))
		if parseReply(data, nil) || parseReply(data, new([]string)) || parseReply(data, new(map[string]string)) {
			t.Fatalf("%q: recognised into a shape parseReply does not cover", data)
		}
	})
}

// newTestNode is testServer's node without the listener.
func newTestNode(tb testing.TB) *node.Node {
	tb.Helper()
	reg := wallet.NewRegistry()
	reg.Register(wallet.NewKey("owner"))
	genesis := statedb.New()
	genesis.SetCode(contractAddr, asm.SerethContract())
	chainCfg := chain.DefaultConfig()
	chainCfg.Registry = reg
	n, err := node.New(node.Config{
		ID: 1, Mode: node.ModeSereth, Miner: node.MinerBaseline,
		Contract: contractAddr, Chain: chainCfg, Genesis: genesis, Network: p2p.NewNetwork(p2p.Config{}),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// FuzzServeHTTP: an arbitrary body never panics the server and is
// answered 200 with one JSON object carrying a result or one of the five
// pinned codes — byte for byte the object encoding/json alone would have
// produced, which a twin node fed the same requests computes.
func FuzzServeHTTP(f *testing.F) {
	srv, twin := NewServer(newTestNode(f), contractAddr), NewServer(newTestNode(f), contractAddr)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/", bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("%q: status %d", body, rec.Code)
		}
		var out struct {
			Result json.RawMessage `json:"result"`
			Error  *rpcError       `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%q answered %q: %v", body, rec.Body.Bytes(), err)
		}
		if out.Error != nil {
			switch out.Error.Code {
			case codeParse, codeInvalidRequest, codeMethodNotFound, codeInvalidParams, codeInternal:
			default:
				t.Fatalf("%q: unpinned error code %d", body, out.Error.Code)
			}
		}
		want := response{Version: "2.0"}
		var req request
		if err := json.Unmarshal(body, &req); err != nil {
			want.Error = &rpcError{Code: codeParse, Message: "parse error"}
		} else {
			want.ID = req.ID
			want.Result, want.Error = twin.safeDispatch(&req)
		}
		var wantBody bytes.Buffer
		if err := json.NewEncoder(&wantBody).Encode(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), wantBody.Bytes()) {
			t.Fatalf("%q\nanswered      %q\nencoding/json %q", body, rec.Body.Bytes(), wantBody.Bytes())
		}
	})
}
