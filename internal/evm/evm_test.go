package evm

import (
	"bytes"
	"errors"
	"testing"

	"sereth/internal/statedb"
	"sereth/internal/types"
)

func addr(b byte) types.Address {
	var a types.Address
	a[19] = b
	return a
}

var contractAddr = addr(0xcc)

// runCode installs code at contractAddr and executes it.
func runCode(t *testing.T, code []byte, input []byte, opts ...func(*CallContext)) (Result, *statedb.StateDB) {
	t.Helper()
	st := statedb.New()
	st.SetCode(contractAddr, code)
	e := New(st, BlockContext{Number: 1, Time: 15})
	ctx := CallContext{
		Caller:   addr(0xaa),
		Contract: contractAddr,
		Input:    input,
		Gas:      1_000_000,
	}
	for _, opt := range opts {
		opt(&ctx)
	}
	return e.Call(ctx), st
}

// push1 helpers for readable test bytecode.
func p1(v byte) []byte { return []byte{byte(PUSH1), v} }

func cat(chunks ...[]byte) []byte {
	var out []byte
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// returnTop is bytecode that stores the stack top at 0 and returns it.
var returnTop = cat(p1(0), []byte{byte(MSTORE)}, p1(32), p1(0), []byte{byte(RETURN)})

func TestArithmetic(t *testing.T) {
	tests := []struct {
		name string
		code []byte
		want uint64
	}{
		{"add", cat(p1(2), p1(3), []byte{byte(ADD)}, returnTop), 5},
		{"mul", cat(p1(6), p1(7), []byte{byte(MUL)}, returnTop), 42},
		{"sub", cat(p1(3), p1(10), []byte{byte(SUB)}, returnTop), 7}, // 10-3: top is first operand
		{"div", cat(p1(4), p1(20), []byte{byte(DIV)}, returnTop), 5},
		{"div-zero", cat(p1(0), p1(20), []byte{byte(DIV)}, returnTop), 0},
		{"mod", cat(p1(5), p1(17), []byte{byte(MOD)}, returnTop), 2},
		{"exp", cat(p1(8), p1(2), []byte{byte(EXP)}, returnTop), 256},
		{"lt-true", cat(p1(9), p1(3), []byte{byte(LT)}, returnTop), 1},
		{"gt-false", cat(p1(9), p1(3), []byte{byte(GT)}, returnTop), 0},
		{"eq", cat(p1(9), p1(9), []byte{byte(EQ)}, returnTop), 1},
		{"iszero", cat(p1(0), []byte{byte(ISZERO)}, returnTop), 1},
		{"and", cat(p1(0x0c), p1(0x0a), []byte{byte(AND)}, returnTop), 8},
		{"or", cat(p1(0x0c), p1(0x0a), []byte{byte(OR)}, returnTop), 14},
		{"xor", cat(p1(0x0c), p1(0x0a), []byte{byte(XOR)}, returnTop), 6},
		{"shl", cat(p1(1), p1(4), []byte{byte(SHL)}, returnTop), 16},
		{"shr", cat(p1(16), p1(4), []byte{byte(SHR)}, returnTop), 1},
		{"byte", cat(p1(0xab), p1(31), []byte{byte(BYTE)}, returnTop), 0xab},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, _ := runCode(t, tt.code, nil)
			if res.Err != nil {
				t.Fatalf("err: %v", res.Err)
			}
			got, _ := res.ReturnWord().Uint64()
			if got != tt.want {
				t.Errorf("got %d want %d", got, tt.want)
			}
		})
	}
}

func TestStackOps(t *testing.T) {
	// PUSH 1, PUSH 2, DUP2 -> [1,2,1]; SWAP1 -> [1,1,2]; ADD -> [1,3]
	code := cat(p1(1), p1(2), []byte{byte(DUP1 + 1)}, []byte{byte(SWAP1)},
		[]byte{byte(ADD)}, returnTop)
	res, _ := runCode(t, code, nil)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got, _ := res.ReturnWord().Uint64(); got != 3 {
		t.Errorf("got %d", got)
	}
}

func TestEnvironmentOps(t *testing.T) {
	res, _ := runCode(t, cat([]byte{byte(CALLER)}, returnTop), nil)
	if res.ReturnWord().Address() != addr(0xaa) {
		t.Error("CALLER wrong")
	}
	res, _ = runCode(t, cat([]byte{byte(ADDRESS)}, returnTop), nil)
	if res.ReturnWord().Address() != contractAddr {
		t.Error("ADDRESS wrong")
	}
	res, _ = runCode(t, cat([]byte{byte(CALLVALUE)}, returnTop), nil,
		func(c *CallContext) { c.Value = 7 })
	if got, _ := res.ReturnWord().Uint64(); got != 7 {
		t.Error("CALLVALUE wrong")
	}
	res, _ = runCode(t, cat([]byte{byte(NUMBER)}, returnTop), nil)
	if got, _ := res.ReturnWord().Uint64(); got != 1 {
		t.Error("NUMBER wrong")
	}
	res, _ = runCode(t, cat([]byte{byte(TIMESTAMP)}, returnTop), nil)
	if got, _ := res.ReturnWord().Uint64(); got != 15 {
		t.Error("TIMESTAMP wrong")
	}
}

func TestCalldata(t *testing.T) {
	input := make([]byte, 36)
	input[4] = 0xff // word at offset 4 starts with 0xff
	res, _ := runCode(t, cat(p1(4), []byte{byte(CALLDATALOAD)}, returnTop), input)
	if res.ReturnWord()[0] != 0xff {
		t.Error("CALLDATALOAD wrong")
	}
	res, _ = runCode(t, cat([]byte{byte(CALLDATASIZE)}, returnTop), input)
	if got, _ := res.ReturnWord().Uint64(); got != 36 {
		t.Error("CALLDATASIZE wrong")
	}
	// CALLDATACOPY(mem 0, data 4, 32) then MLOAD 0.
	code := cat(p1(32), p1(4), p1(0), []byte{byte(CALLDATACOPY)},
		p1(0), []byte{byte(MLOAD)}, returnTop)
	res, _ = runCode(t, code, input)
	if res.ReturnWord()[0] != 0xff {
		t.Error("CALLDATACOPY wrong")
	}
	// Out-of-range CALLDATALOAD yields zero.
	res, _ = runCode(t, cat(p1(200), []byte{byte(CALLDATALOAD)}, returnTop), input)
	if !res.ReturnWord().IsZero() {
		t.Error("out-of-range CALLDATALOAD should be zero")
	}
}

func TestStorage(t *testing.T) {
	// SSTORE slot 1 = 0x2a, then SLOAD it back.
	code := cat(p1(0x2a), p1(1), []byte{byte(SSTORE)},
		p1(1), []byte{byte(SLOAD)}, returnTop)
	res, st := runCode(t, code, nil)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got, _ := res.ReturnWord().Uint64(); got != 0x2a {
		t.Errorf("SLOAD returned %d", got)
	}
	if got, _ := st.GetState(contractAddr, types.WordFromUint64(1)).Uint64(); got != 0x2a {
		t.Error("state not persisted")
	}
}

func TestSha3(t *testing.T) {
	// keccak of 32 zero bytes.
	code := cat(p1(32), p1(0), []byte{byte(SHA3)}, returnTop)
	res, _ := runCode(t, code, nil)
	want := types.Keccak(make([]byte, 32))
	if res.ReturnWord().Hash() != want {
		t.Errorf("SHA3 = %x want %x", res.ReturnWord(), want)
	}
}

func TestJumps(t *testing.T) {
	code := []byte{
		byte(PUSH1), 4, byte(JUMP),
		byte(INVALID),
		byte(JUMPDEST), // offset 4
		byte(PUSH1), 1,
	}
	code = append(code, returnTop...)
	res, _ := runCode(t, code, nil)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got, _ := res.ReturnWord().Uint64(); got != 1 {
		t.Error("JUMP target not executed")
	}
}

func TestJumpiBothBranches(t *testing.T) {
	// cond != 0 -> return 1; cond == 0 -> implicit STOP (no return data).
	// cond is the first calldata word.
	code := []byte{
		byte(PUSH1), 0, byte(CALLDATALOAD), // [cond]
		byte(PUSH1), 7, byte(JUMPI),
		byte(STOP),
		byte(JUMPDEST), // offset 7
		byte(PUSH1), 1,
	}
	code = append(code, returnTop...)

	resTrue, _ := runCode(t, code, []byte{1})
	if got, _ := resTrue.ReturnWord().Uint64(); got != 1 {
		t.Error("taken branch failed")
	}
	resFalse, _ := runCode(t, code, []byte{0})
	if resFalse.Err != nil || len(resFalse.ReturnData) != 0 {
		t.Error("fallthrough branch failed")
	}
}

func TestInvalidJump(t *testing.T) {
	// Jump into the middle of a PUSH immediate must fail.
	code := []byte{byte(PUSH1), 1, byte(JUMP), byte(JUMPDEST)}
	res, _ := runCode(t, code, nil)
	if !errors.Is(res.Err, ErrInvalidJump) {
		t.Errorf("err = %v, want ErrInvalidJump", res.Err)
	}
	if res.GasUsed != 1_000_000 {
		t.Error("hard fault must consume all gas")
	}
}

func TestOutOfGas(t *testing.T) {
	code := cat(p1(1), p1(2), []byte{byte(ADD)}, returnTop)
	res, _ := runCode(t, code, nil, func(c *CallContext) { c.Gas = 4 })
	if !errors.Is(res.Err, ErrOutOfGas) {
		t.Errorf("err = %v", res.Err)
	}
}

func TestStackUnderflow(t *testing.T) {
	res, _ := runCode(t, []byte{byte(ADD)}, nil)
	if !errors.Is(res.Err, ErrStackUnderflow) {
		t.Errorf("err = %v", res.Err)
	}
}

func TestInvalidOpcode(t *testing.T) {
	res, _ := runCode(t, []byte{0xef}, nil)
	if !errors.Is(res.Err, ErrInvalidOpcode) {
		t.Errorf("err = %v", res.Err)
	}
}

func TestRevert(t *testing.T) {
	// Store 0x2a to slot 0, then REVERT: storage must stay untouched by
	// the caller (chain layer) via snapshots — here we check the error
	// and that remaining gas is NOT consumed.
	code := cat(p1(0x2a), p1(0), []byte{byte(SSTORE)}, p1(0), p1(0), []byte{byte(REVERT)})
	res, _ := runCode(t, code, nil)
	if !errors.Is(res.Err, ErrExecutionRevert) {
		t.Fatalf("err = %v", res.Err)
	}
	if res.GasUsed >= 1_000_000 {
		t.Error("REVERT must refund remaining gas")
	}
}

func TestReadOnlyBlocksSSTORE(t *testing.T) {
	code := cat(p1(1), p1(0), []byte{byte(SSTORE)})
	res, _ := runCode(t, code, nil, func(c *CallContext) { c.ReadOnly = true })
	if !errors.Is(res.Err, ErrWriteProtection) {
		t.Errorf("err = %v", res.Err)
	}
}

func TestEmptyCodeIsNoop(t *testing.T) {
	st := statedb.New()
	e := New(st, BlockContext{})
	res := e.Call(CallContext{Contract: addr(1), Gas: 100})
	if res.Err != nil || res.GasUsed != 0 {
		t.Error("transfer to code-less account should be free noop")
	}
}

func TestTruncatedPushImmediate(t *testing.T) {
	// PUSH2 with only 1 byte remaining: right-padded with zero.
	code := []byte{byte(PUSH1) + 1, 0xab}
	res, _ := runCode(t, code, nil)
	if res.Err != nil {
		t.Fatalf("err: %v", res.Err)
	}
}

// raaEcho rewrites argument word 0 to a fixed value.
type raaEcho struct{ value types.Word }

func (r raaEcho) Augment(dst []byte, _ types.Address, input []byte) ([]byte, bool) {
	if len(input) < 4+32 {
		return nil, false
	}
	out := append(dst[:0], input...)
	copy(out[4:36], r.value[:])
	return out, true
}

func TestRAAHookReadOnly(t *testing.T) {
	// Code returns calldata word at offset 4.
	code := cat(p1(4), []byte{byte(CALLDATALOAD)}, returnTop)
	st := statedb.New()
	st.SetCode(contractAddr, code)
	e := New(st, BlockContext{})
	want := types.WordFromUint64(0x1234)
	e.SetRAAProvider(raaEcho{value: want})

	input := make([]byte, 36) // zero arg word
	// Read-only call: augmented, in the machine's own buffer, which the
	// next read-only call reuses; the caller's input is never written.
	res := e.Call(CallContext{Contract: contractAddr, Input: input, Gas: 100000, ReadOnly: true})
	if res.ReturnWord() != want {
		t.Errorf("RAA did not augment: got %x", res.ReturnWord())
	}
	aug := &e.aug[0]
	if e.Call(CallContext{Contract: contractAddr, Input: input, Gas: 100000, ReadOnly: true}); &e.aug[0] != aug {
		t.Error("the second read-only call augmented into a new buffer")
	}
	if !bytes.Equal(input, make([]byte, 36)) {
		t.Error("RAA wrote the caller's calldata")
	}
	// Transaction (non-read-only): never augmented — the calldata is
	// signature-protected (paper §III-D).
	res = e.Call(CallContext{Contract: contractAddr, Input: input, Gas: 100000})
	if !res.ReturnWord().IsZero() {
		t.Error("RAA augmented a state-changing call")
	}
}

func TestIntrinsicGas(t *testing.T) {
	if IntrinsicGas(nil) != TxGas {
		t.Error("empty calldata intrinsic wrong")
	}
	got := IntrinsicGas([]byte{0, 1})
	if got != TxGas+TxDataZeroGas+TxDataNonZeroGas {
		t.Errorf("intrinsic = %d", got)
	}
}

func TestGasAccounting(t *testing.T) {
	// SSTORE zero->nonzero costs 20000; nonzero->nonzero costs 5000.
	code := cat(p1(1), p1(0), []byte{byte(SSTORE)})
	res, st := runCode(t, code, nil)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	first := res.GasUsed
	if first < 20000 {
		t.Errorf("fresh SSTORE gas = %d", first)
	}
	// Run again with the slot already set.
	e := New(st, BlockContext{})
	res2 := e.Call(CallContext{Contract: contractAddr, Gas: 1_000_000})
	if res2.Err != nil {
		t.Fatal(res2.Err)
	}
	if res2.GasUsed >= first {
		t.Errorf("reset SSTORE (%d) should be cheaper than set (%d)", res2.GasUsed, first)
	}
}

func BenchmarkArithmeticLoop(b *testing.B) {
	code := cat(p1(1), p1(2), []byte{byte(ADD)}, p1(3), []byte{byte(MUL)}, returnTop)
	st := statedb.New()
	st.SetCode(contractAddr, code)
	e := New(st, BlockContext{})
	ctx := CallContext{Contract: contractAddr, Gas: 1_000_000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := e.Call(ctx); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}
