package sim

import (
	"encoding/hex"
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"sereth/internal/node"
	"sereth/internal/rpc"
	"sereth/internal/txpool"
	"sereth/internal/types"
)

// rpcFrontend is the serving tier ScenarioConfig.RPCClients puts in front
// of the clients: one HTTP server and one typed caller per client peer.
// Calls are synchronous in-process HTTP, so the simulation's event
// timeline stays fully deterministic.
type rpcFrontend struct {
	servers []*httptest.Server
	callers []*rpc.Client
}

// newRPCFrontend publishes every client peer over JSON-RPC. The
// generous timeout (vs rpc.DefaultTimeout) keeps loaded CI runners
// from injecting spurious transport failures into a deterministic run.
func newRPCFrontend(clients []*node.Node, contract types.Address) *rpcFrontend {
	f := &rpcFrontend{}
	for _, n := range clients {
		srv := httptest.NewServer(rpc.NewServer(n, contract))
		f.servers = append(f.servers, srv)
		f.callers = append(f.callers, rpc.NewClient(srv.URL, rpc.WithTimeout(30*time.Second)))
	}
	return f
}

func (f *rpcFrontend) close() {
	for i, srv := range f.servers {
		f.callers[i].Close()
		srv.Close()
	}
}

// wordFromHex parses a 32-byte word from the RPC wire encoding.
func wordFromHex(s string) (types.Word, error) {
	var w types.Word
	b, err := hex.DecodeString(strings.TrimPrefix(s, "0x"))
	if err != nil || len(b) != len(w) {
		return w, fmt.Errorf("sim: bad word %q on the rpc wire", s)
	}
	copy(w[:], b)
	return w, nil
}

// clientView reads the client's best (flag, mark, value) view of the
// managed variable, over sereth_view when the serving tier is enabled.
// The RPC server calls ViewAMV with the zero caller address; the
// Sereth contract never reads CALLER, so the words are identical to
// the in-process read for any caller.
func (s *scenario) clientView(clientIdx int, caller types.Address) (flag, mark, value types.Word, err error) {
	if s.rpc == nil {
		flag, mark, value = s.clients[clientIdx].ViewAMV(caller, s.contract)
		return flag, mark, value, nil
	}
	vr, err := s.rpc.callers[clientIdx].View()
	if err != nil {
		return flag, mark, value, err
	}
	if flag, err = wordFromHex(vr.Flag); err != nil {
		return flag, mark, value, err
	}
	if mark, err = wordFromHex(vr.Mark); err != nil {
		return flag, mark, value, err
	}
	value, err = wordFromHex(vr.Value)
	return flag, mark, value, err
}

// clientStorage reads a committed contract slot through the client,
// over eth_getStorageAt when the serving tier is enabled.
func (s *scenario) clientStorage(clientIdx int, slot uint64) (types.Word, error) {
	if s.rpc == nil {
		return s.clients[clientIdx].StorageAt(s.contract, slot), nil
	}
	var hexWord string
	err := s.rpc.callers[clientIdx].Call("eth_getStorageAt", &hexWord,
		s.contract.Hex(), fmt.Sprintf("0x%x", slot))
	if err != nil {
		return types.Word{}, err
	}
	return wordFromHex(hexWord)
}

// submitVia routes one signed transaction through the client — raw RLP
// over eth_sendRawTransaction when the serving tier is enabled, the
// in-process pool otherwise. A pool-full refusal comes back over the
// wire as a JSON-RPC internal error carrying the pool's message; it is
// mapped back to txpool.ErrPoolFull so the overload family's
// backpressure accounting is identical on both paths.
func (s *scenario) submitVia(clientIdx int, tx *types.Transaction) error {
	if s.rpc == nil {
		return s.clients[clientIdx].SubmitTx(tx)
	}
	_, err := s.rpc.callers[clientIdx].SendRawTransaction(tx.EncodeRLP())
	if err != nil && strings.Contains(err.Error(), txpool.ErrPoolFull.Error()) {
		return txpool.ErrPoolFull
	}
	return err
}
