package raa

import (
	"testing"

	"sereth/internal/asm"
	"sereth/internal/evm"
	"sereth/internal/hms"
	"sereth/internal/statedb"
	"sereth/internal/types"
)

var (
	contract = types.Address{19: 0xcc}
	caller   = types.Address{19: 0x01}
)

func TestAugmentRouting(t *testing.T) {
	s := NewService()
	want := types.WordFromUint64(77)
	s.Register(contract, asm.SelGet, StaticProvider{Words: []types.Word{want}})

	input := types.EncodeCall(asm.SelGet, types.ZeroWord, types.ZeroWord, types.ZeroWord)
	out, ok := s.Augment(nil, contract, input)
	if !ok {
		t.Fatal("registered call not augmented")
	}
	var got types.Word
	copy(got[:], out[4:36])
	if got != want {
		t.Errorf("arg0 = %x", got)
	}
	// Unregistered selector untouched.
	if _, ok := s.Augment(nil, contract, types.EncodeCall(asm.SelBuy, types.ZeroWord)); ok {
		t.Error("unregistered selector augmented")
	}
	// Unregistered contract untouched.
	if _, ok := s.Augment(nil, types.Address{19: 0xdd}, input); ok {
		t.Error("unregistered contract augmented")
	}
	// Selector-less input untouched.
	if _, ok := s.Augment(nil, contract, []byte{1, 2}); ok {
		t.Error("short input augmented")
	}
}

func TestAugmentDoesNotOverflowArgs(t *testing.T) {
	s := NewService()
	s.Register(contract, asm.SelGet, StaticProvider{
		Words: []types.Word{{}, {}, {}}, // three words
	})
	// Only one argument slot available: must refuse (type/shape mismatch).
	input := types.EncodeCall(asm.SelGet, types.ZeroWord)
	if _, ok := s.Augment(nil, contract, input); ok {
		t.Error("oversized replacement accepted")
	}
}

func TestAugmentDoesNotMutateInput(t *testing.T) {
	s := NewService()
	s.Register(contract, asm.SelGet, StaticProvider{Words: []types.Word{types.WordFromUint64(9)}})
	input := types.EncodeCall(asm.SelGet, types.ZeroWord)
	out, ok := s.Augment(nil, contract, input)
	if !ok {
		t.Fatal("not augmented")
	}
	if &out[0] == &input[0] {
		t.Error("Augment aliases its input")
	}
	if input[35] != 0 {
		t.Error("input mutated")
	}
}

func TestUnregister(t *testing.T) {
	s := NewService()
	s.Register(contract, asm.SelGet, StaticProvider{Words: []types.Word{{}}})
	s.Unregister(contract, asm.SelGet)
	if _, ok := s.Augment(nil, contract, types.EncodeCall(asm.SelGet, types.ZeroWord)); ok {
		t.Error("unregistered provider still active")
	}
}

func TestProviderFunc(t *testing.T) {
	s := NewService()
	s.Register(contract, asm.SelGet, ProviderFunc(func(_ types.Address, args []byte) bool {
		// Echo arg1 into arg0.
		return SetWord(args, 0, types.Word(args[types.WordLength:2*types.WordLength]))
	}))
	input := types.EncodeCall(asm.SelGet, types.ZeroWord, types.WordFromUint64(5))
	out, ok := s.Augment(nil, contract, input)
	if !ok || out[35] != 5 {
		t.Error("ProviderFunc routing broken")
	}
}

// stubPool satisfies PoolSource with a fixed pending set.
type stubPool struct{ txs []*types.Transaction }

func (s stubPool) Pending() []*types.Transaction { return s.txs }

// provide runs p over n zero argument words and returns them as p left
// them.
func provide(p Provider, n int) ([]types.Word, bool) {
	args := make([]byte, n*types.WordLength)
	ok := p.Provide(contract, args)
	words := make([]types.Word, n)
	for i := range words {
		words[i] = types.Word(args[i*types.WordLength:])
	}
	return words, ok
}

func hmsTracker() *hms.Tracker {
	return hms.NewTracker(hms.Config{
		Contract:    contract,
		SetSelector: asm.SelSet,
		BuySelector: asm.SelBuy,
	})
}

func TestHMSProviderServesPendingTail(t *testing.T) {
	tracker := hmsTracker()
	price := types.WordFromUint64(5)
	pending := &types.Transaction{
		From: caller, To: contract, GasLimit: 1,
		Data: types.EncodeCall(asm.SelSet, types.FlagHead, types.ZeroWord, price),
	}
	p := NewHMSProvider(tracker, stubPool{txs: []*types.Transaction{pending}})

	words, ok := provide(p, 3)
	if !ok {
		t.Fatal("provider refused")
	}
	if words[0] != types.FlagChain {
		t.Error("flag should be chain (pending tail)")
	}
	if words[1] != types.NextMark(types.ZeroWord, price) || words[2] != price {
		t.Error("mark/value wrong")
	}
	// Too few argument slots: refused.
	if _, ok := provide(p, 2); ok {
		t.Error("short arg list accepted")
	}
}

func TestHMSProviderFallsBackToCommitted(t *testing.T) {
	tracker := hmsTracker()
	amv := types.AMV{Mark: types.WordFromUint64(42), Value: types.WordFromUint64(9)}
	tracker.SetCommitted(amv)
	p := NewHMSProvider(tracker, stubPool{})
	words, ok := provide(p, 3)
	if !ok || words[0] != types.FlagHead || words[1] != amv.Mark || words[2] != amv.Value {
		t.Errorf("fallback words = %v ok=%v", words, ok)
	}
}

// End-to-end: a read-only get() through the real EVM returns the
// READ-UNCOMMITTED value from the pending pool.
func TestEndToEndGetThroughEVM(t *testing.T) {
	st := statedb.New()
	st.SetCode(contract, asm.SerethContract())
	tracker := hmsTracker()
	price := types.WordFromUint64(1234)
	pending := &types.Transaction{
		From: caller, To: contract, GasLimit: 1,
		Data: types.EncodeCall(asm.SelSet, types.FlagHead, types.ZeroWord, price),
	}
	service := NewService()
	RegisterHMS(service, tracker, stubPool{txs: []*types.Transaction{pending}}, asm.SelGet, asm.SelMark)

	e := evm.New(st, evm.BlockContext{})
	e.SetRAAProvider(service)

	res := e.Call(evm.CallContext{
		Caller:   caller,
		Contract: contract,
		Input:    types.EncodeCall(asm.SelGet, types.ZeroWord, types.ZeroWord, types.ZeroWord),
		Gas:      1_000_000,
		ReadOnly: true,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.ReturnWord() != price {
		t.Errorf("get returned %x, want pending price %x", res.ReturnWord(), price)
	}
	// mark() returns the pending tail mark.
	res = e.Call(evm.CallContext{
		Caller:   caller,
		Contract: contract,
		Input:    types.EncodeCall(asm.SelMark, types.ZeroWord, types.ZeroWord, types.ZeroWord),
		Gas:      1_000_000,
		ReadOnly: true,
	})
	if res.ReturnWord() != types.NextMark(types.ZeroWord, price) {
		t.Error("mark() did not return the series tail mark")
	}
	// Without RAA (standard Geth client) the same call returns the
	// unmodified argument — interoperability (§V).
	plain := evm.New(st, evm.BlockContext{})
	res = plain.Call(evm.CallContext{
		Caller:   caller,
		Contract: contract,
		Input:    types.EncodeCall(asm.SelGet, types.ZeroWord, types.ZeroWord, types.ZeroWord),
		Gas:      1_000_000,
		ReadOnly: true,
	})
	if !res.ReturnWord().IsZero() {
		t.Error("standard client should see unaugmented arguments")
	}
}
