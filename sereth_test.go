package sereth

import (
	"bytes"
	"testing"

	"sereth/internal/asm"
)

// TestFacadeEndToEnd drives the whole public API: build a two-node
// network, submit a chained workload through the Sereth client, mine
// semantically, and verify the committed state.
func TestFacadeEndToEnd(t *testing.T) {
	genesis, contract := NewGenesisWithContract()
	owner := NewKey("owner")
	buyer := NewKey("buyer")
	reg := NewRegistry()
	reg.Register(owner)
	reg.Register(buyer)

	net := NewNetwork(NetworkConfig{LatencyMs: 10, Seed: 1})
	minerNode, err := NewNode(NodeConfig{
		ID: 1, Mode: ModeSereth, Miner: MinerSemantic,
		Contract: contract, Genesis: genesis, Network: net, Registry: reg, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	clientNode, err := NewNode(NodeConfig{
		ID: 2, Mode: ModeSereth, Miner: MinerNone,
		Contract: contract, Genesis: genesis, Network: net, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	price := WordFromUint64(42)
	if _, err := clientNode.SubmitSet(owner, 0, contract, FlagHead, Word{}, price); err != nil {
		t.Fatal(err)
	}
	net.AdvanceTo(10)

	// READ-UNCOMMITTED view sees the pending price.
	_, mark, value := clientNode.ViewAMV(buyer.Address(), contract)
	if v, _ := value.Uint64(); v != 42 {
		t.Fatalf("pending view price = %d", v)
	}
	if mark != NextMark(Word{}, price) {
		t.Fatal("pending view mark wrong")
	}
	if _, err := clientNode.SubmitBuy(buyer, 0, contract, FlagChain, mark, value); err != nil {
		t.Fatal(err)
	}
	net.AdvanceTo(20)

	block, err := minerNode.MineAndBroadcast(15)
	if err != nil {
		t.Fatal(err)
	}
	net.AdvanceTo(40)

	receipts := minerNode.Chain().Receipts(block.Hash())
	if len(receipts) != 2 {
		t.Fatalf("receipts = %d", len(receipts))
	}
	for i, r := range receipts {
		if r.Status.String() != "succeeded" {
			t.Errorf("tx %d failed", i)
		}
	}
	// Both peers converge on the same committed price.
	for _, n := range []*Node{minerNode, clientNode} {
		if v, _ := n.StorageAt(contract, SlotValue).Uint64(); v != 42 {
			t.Error("committed price wrong")
		}
		if v, _ := n.StorageAt(contract, SlotNBuy).Uint64(); v != 1 {
			t.Error("nBuy wrong")
		}
	}
}

func TestFacadeHelpers(t *testing.T) {
	if SelectorFor("set(bytes32[3])") != SelSet {
		t.Error("SelectorFor mismatch with asm selector")
	}
	if len(SerethContract()) == 0 {
		t.Error("empty contract bytecode")
	}
	data := EncodeCall(SelGet, WordFromUint64(1))
	if len(data) != 4+32 {
		t.Error("EncodeCall length")
	}
	if Keccak([]byte("x")) == (Hash{}) {
		t.Error("Keccak zero")
	}
	tr := NewTracker(Address{19: 0xcc})
	if tr.Config().SetSelector != SelSet {
		t.Error("tracker selectors")
	}
}

func TestFacadeScenario(t *testing.T) {
	cfg := Figure2Sereth(10, 1)
	cfg.Buys = 20
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BuysIncluded == 0 {
		t.Error("no buys included")
	}
	if got := FormatSweep(nil); got == "" {
		t.Error("FormatSweep empty header")
	}
	_ = Figure2Geth(10, 1)
	_ = Figure2Semantic(10, 1)
}

// TestSerethContractIsTheCallersCopy: the public SerethContract hands
// out a copy, so a caller that writes it cannot change the contract the
// process shares.
func TestSerethContractIsTheCallersCopy(t *testing.T) {
	code := SerethContract()
	if !bytes.Equal(code, asm.SerethContract()) {
		t.Fatal("the public contract differs from the shared one")
	}
	code[0] ^= 0xff
	if bytes.Equal(code, asm.SerethContract()) {
		t.Fatal("a write to the public contract reached the shared one")
	}
}
