package asm

import (
	"bytes"
	"testing"

	"sereth/internal/evm"
	"sereth/internal/statedb"
	"sereth/internal/types"
)

func TestAssembleBasics(t *testing.T) {
	code, err := NewProgram().PushInt(1).PushInt(2).Op(evm.ADD).Assemble()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(evm.PUSH1), 1, byte(evm.PUSH1), 2, byte(evm.ADD)}
	if string(code) != string(want) {
		t.Errorf("code = %x want %x", code, want)
	}
}

func TestPushIntMinimal(t *testing.T) {
	code := NewProgram().PushInt(0x1234).MustAssemble()
	if code[0] != byte(evm.PUSH1)+1 || code[1] != 0x12 || code[2] != 0x34 {
		t.Errorf("code = %x", code)
	}
	code = NewProgram().PushInt(0).MustAssemble()
	if code[0] != byte(evm.PUSH1) || code[1] != 0 {
		t.Errorf("zero push = %x", code)
	}
}

func TestLabelResolution(t *testing.T) {
	code, err := NewProgram().
		PushLabel("end").Op(evm.JUMP).
		Op(evm.INVALID).
		Label("end").
		Assemble()
	if err != nil {
		t.Fatal(err)
	}
	// PUSH2 0x0005 JUMP INVALID JUMPDEST  (PUSH2 occupies bytes 0-2)
	want := []byte{byte(evm.PUSH1) + 1, 0, 5, byte(evm.JUMP), byte(evm.INVALID), byte(evm.JUMPDEST)}
	if string(code) != string(want) {
		t.Errorf("code = %x want %x", code, want)
	}
}

func TestUndefinedLabel(t *testing.T) {
	_, err := NewProgram().PushLabel("nowhere").Assemble()
	if err == nil {
		t.Error("undefined label accepted")
	}
}

func TestDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate label did not panic")
		}
	}()
	NewProgram().Label("a").Label("a")
}

func TestBadPushSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("33-byte push did not panic")
		}
	}()
	NewProgram().PushBytes(make([]byte, 33))
}

// --- Sereth contract integration ---------------------------------------

var (
	contractAddr = types.Address{19: 0xcc}
	owner        = types.Address{19: 0x01}
	buyer        = types.Address{19: 0x02}
)

type testEnv struct {
	st *statedb.StateDB
	e  *evm.EVM
}

func newEnv() *testEnv {
	st := statedb.New()
	st.SetCode(contractAddr, SerethContract())
	return &testEnv{st: st, e: evm.New(st, evm.BlockContext{Number: 1})}
}

func (env *testEnv) call(caller types.Address, sel types.Selector, args ...types.Word) evm.Result {
	return env.e.Call(evm.CallContext{
		Caller:   caller,
		Contract: contractAddr,
		Input:    types.EncodeCall(sel, args...),
		Gas:      1_000_000,
	})
}

func (env *testEnv) slot(n uint64) types.Word {
	return env.st.GetState(contractAddr, types.WordFromUint64(n))
}

func TestSerethSetFromGenesis(t *testing.T) {
	env := newEnv()
	// Genesis: mark slot is zero. First set must supply prev = current
	// mark (zero word).
	price := types.WordFromUint64(5)
	res := env.call(owner, SelSet, types.FlagHead, types.ZeroWord, price)
	if res.Err != nil {
		t.Fatalf("set: %v", res.Err)
	}
	if got, _ := res.ReturnWord().Uint64(); got != 1 {
		t.Fatalf("set returned %d, want 1", got)
	}
	if env.slot(SlotValue) != price {
		t.Error("price not stored")
	}
	wantMark := types.NextMark(types.ZeroWord, price)
	if env.slot(SlotMark) != wantMark {
		t.Errorf("mark = %x want %x", env.slot(SlotMark), wantMark)
	}
	if env.slot(SlotAddress).Address() != owner {
		t.Error("actor not recorded")
	}
	if got, _ := env.slot(SlotNSet).Uint64(); got != 1 {
		t.Errorf("nSet = %d", got)
	}
}

func TestSerethSetWrongMarkFails(t *testing.T) {
	env := newEnv()
	res := env.call(owner, SelSet, types.FlagHead, types.WordFromUint64(99), types.WordFromUint64(5))
	if res.Err != nil {
		t.Fatalf("unexpected EVM error: %v", res.Err)
	}
	if got, _ := res.ReturnWord().Uint64(); got != 0 {
		t.Fatal("set with stale mark must return 0")
	}
	if !env.slot(SlotValue).IsZero() || !env.slot(SlotMark).IsZero() {
		t.Error("failed set mutated state")
	}
}

func TestSerethSetChain(t *testing.T) {
	env := newEnv()
	// set(5), then set(7) chained on the resulting mark.
	p5, p7 := types.WordFromUint64(5), types.WordFromUint64(7)
	if res := env.call(owner, SelSet, types.FlagHead, types.ZeroWord, p5); res.Err != nil {
		t.Fatal(res.Err)
	}
	m1 := types.NextMark(types.ZeroWord, p5)
	res := env.call(owner, SelSet, types.FlagChain, m1, p7)
	if got, _ := res.ReturnWord().Uint64(); got != 1 {
		t.Fatal("chained set failed")
	}
	if env.slot(SlotMark) != types.NextMark(m1, p7) {
		t.Error("mark chain broken")
	}
	if got, _ := env.slot(SlotNSet).Uint64(); got != 2 {
		t.Errorf("nSet = %d", got)
	}
	// Replaying the first set must now fail (stale mark).
	res = env.call(owner, SelSet, types.FlagHead, types.ZeroWord, p5)
	if got, _ := res.ReturnWord().Uint64(); got != 0 {
		t.Error("stale set accepted")
	}
}

func TestSerethBuy(t *testing.T) {
	env := newEnv()
	price := types.WordFromUint64(5)
	env.call(owner, SelSet, types.FlagHead, types.ZeroWord, price)
	mark := types.NextMark(types.ZeroWord, price)

	// Buy at the right (mark, price): succeeds.
	res := env.call(buyer, SelBuy, types.FlagChain, mark, price)
	if got, _ := res.ReturnWord().Uint64(); got != 1 {
		t.Fatal("valid buy failed")
	}
	if env.slot(SlotAddress).Address() != buyer {
		t.Error("buyer not recorded")
	}
	if got, _ := env.slot(SlotNBuy).Uint64(); got != 1 {
		t.Errorf("nBuy = %d", got)
	}

	// Wrong price: fails, state untouched.
	res = env.call(buyer, SelBuy, types.FlagChain, mark, types.WordFromUint64(6))
	if got, _ := res.ReturnWord().Uint64(); got != 0 {
		t.Error("wrong-price buy succeeded")
	}
	// Wrong mark: fails.
	res = env.call(buyer, SelBuy, types.FlagChain, types.WordFromUint64(1), price)
	if got, _ := res.ReturnWord().Uint64(); got != 0 {
		t.Error("wrong-mark buy succeeded")
	}
	if got, _ := env.slot(SlotNBuy).Uint64(); got != 1 {
		t.Error("failed buys incremented nBuy")
	}
}

func TestSerethBuyDoesNotAdvanceMark(t *testing.T) {
	env := newEnv()
	price := types.WordFromUint64(5)
	env.call(owner, SelSet, types.FlagHead, types.ZeroWord, price)
	mark := env.slot(SlotMark)
	// Multiple buys in the same interval all succeed (paper: buys within
	// an interval are not ordered against each other).
	for i := 0; i < 3; i++ {
		res := env.call(buyer, SelBuy, types.FlagChain, mark, price)
		if got, _ := res.ReturnWord().Uint64(); got != 1 {
			t.Fatalf("buy %d failed", i)
		}
	}
	if env.slot(SlotMark) != mark {
		t.Error("buy advanced the mark")
	}
	if got, _ := env.slot(SlotNBuy).Uint64(); got != 3 {
		t.Errorf("nBuy = %d", got)
	}
}

func TestSerethGetAndMarkArePure(t *testing.T) {
	env := newEnv()
	arg1, arg2 := types.WordFromUint64(11), types.WordFromUint64(22)
	res := env.call(buyer, SelGet, types.ZeroWord, arg1, arg2)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.ReturnWord() != arg2 {
		t.Errorf("get returned %x, want raa[2]=%x", res.ReturnWord(), arg2)
	}
	res = env.call(buyer, SelMark, types.ZeroWord, arg1, arg2)
	if res.ReturnWord() != arg1 {
		t.Errorf("mark returned %x, want raa[1]=%x", res.ReturnWord(), arg1)
	}
	// Neither touches storage.
	if env.st.Root() != func() types.Hash {
		fresh := statedb.New()
		fresh.SetCode(contractAddr, SerethContract())
		return fresh.Root()
	}() {
		t.Error("pure call mutated state")
	}
}

func TestSerethUnknownSelectorNoop(t *testing.T) {
	env := newEnv()
	res := env.e.Call(evm.CallContext{
		Caller:   buyer,
		Contract: contractAddr,
		Input:    []byte{0xde, 0xad, 0xbe, 0xef},
		Gas:      1_000_000,
	})
	if res.Err != nil || len(res.ReturnData) != 0 {
		t.Error("unknown selector should be a silent noop")
	}
}

func TestSerethGasConsumption(t *testing.T) {
	env := newEnv()
	res := env.call(owner, SelSet, types.FlagHead, types.ZeroWord, types.WordFromUint64(5))
	if res.GasUsed == 0 {
		t.Error("set consumed no gas")
	}
	// A failed set is cheaper than a successful one (no SSTOREs).
	res2 := env.call(owner, SelSet, types.FlagHead, types.WordFromUint64(123), types.WordFromUint64(9))
	if res2.GasUsed >= res.GasUsed {
		t.Errorf("failed set gas %d >= successful set gas %d", res2.GasUsed, res.GasUsed)
	}
}

func BenchmarkSerethSet(b *testing.B) {
	env := newEnv()
	mark := types.ZeroWord
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		price := types.WordFromUint64(uint64(i%100) + 1)
		res := env.call(owner, SelSet, types.FlagChain, mark, price)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		mark = types.NextMark(mark, price)
	}
}

func BenchmarkSerethBuy(b *testing.B) {
	env := newEnv()
	price := types.WordFromUint64(5)
	env.call(owner, SelSet, types.FlagHead, types.ZeroWord, price)
	mark := types.NextMark(types.ZeroWord, price)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := env.call(buyer, SelBuy, types.FlagChain, mark, price); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// TestSerethContractAssembledOnce: the contract is assembled once per
// process, so a second SerethContract costs nothing and returns the same
// shared slice, byte for byte a fresh assembly.
func TestSerethContractAssembledOnce(t *testing.T) {
	first := SerethContract()
	if !bytes.Equal(first, assembleSereth()) {
		t.Fatal("the shared contract differs from a fresh assembly")
	}
	if second := SerethContract(); &second[0] != &first[0] {
		t.Fatal("a second SerethContract assembled the contract again")
	}
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	if got := testing.AllocsPerRun(100, func() { _ = SerethContract() }); got != 0 {
		t.Errorf("a second SerethContract allocates %v times, want 0", got)
	}
}
