package evm

import (
	"sereth/internal/uint256"
)

// executionFunc is one opcode handler. Stack depth and overflow headroom
// were already validated against the operation's minStack/maxStack and
// the constant gas charged (unless the operation is dynamic), so
// handlers use the unchecked stack ops. A handler that redirects control
// flow sets *pc and in.pcSet; otherwise the run loop advances pc by one.
type executionFunc func(in *interpreter, pc *uint64) ([]byte, error)

// memSizeFunc computes, from stack peeks, the memory range an operation
// is about to touch. The run loop evaluates it before dispatch and
// parks the result (and any offset-overflow error) on the interpreter;
// the handler consumes it at exactly the point the reference
// interpreter would have converted the operand — preserving the
// reference's error ordering bit-for-bit.
type memSizeFunc func(s *stack) (offset, size uint64, err error)

// operation is one precomputed jump-table entry: the handler plus
// everything the dispatch loop validates up front so the handler itself
// runs unchecked.
type operation struct {
	execute  executionFunc
	constGas uint64
	// dynamic marks opcodes whose gas is charged entirely inside the
	// handler (SSTORE, SHA3, CALLDATACOPY, INVALID); the loop skips the
	// constant charge for them, matching the reference interpreter.
	dynamic bool
	// minStack is the operand count the handler pops or peeks.
	minStack int
	// maxStack is the largest pre-execution stack depth that cannot
	// overflow: StackLimit + pops - pushes.
	maxStack int
	// halts marks RETURN/STOP-like terminal opcodes.
	halts   bool
	memSize memSizeFunc
}

// maxStackFor returns the overflow bound for an op popping `pops` and
// pushing `pushes` operands.
func maxStackFor(pops, pushes int) int { return StackLimit + pops - pushes }

// run is the jump-table dispatch loop. It mirrors runGeneric's
// behaviour exactly: constant gas first, then stack validation, then the
// handler; errors and gas-exhaustion points are pinned bit-identical by
// the differential fuzz in interp_test.go.
func (in *interpreter) run() ([]byte, error) {
	// Handlers take the program counter by address, so it lives in the
	// pooled frame: a local would be one heap allocation per call.
	pc := &in.pc
	codeLen := uint64(len(in.code))
	for {
		if *pc >= codeLen {
			return nil, nil // implicit STOP
		}
		oper := &jumpTable[in.code[*pc]]
		if oper.execute == nil {
			return nil, ErrInvalidOpcode
		}
		if !oper.dynamic {
			if err := in.useGas(oper.constGas); err != nil {
				return nil, err
			}
		}
		sp := in.stack.len()
		if sp < oper.minStack {
			return nil, ErrStackUnderflow
		}
		if sp > oper.maxStack {
			return nil, ErrStackOverflow
		}
		if oper.memSize != nil {
			in.memOff, in.memLen, in.memErr = oper.memSize(&in.stack)
		}
		ret, err := oper.execute(in, pc)
		if err != nil {
			return ret, err
		}
		if oper.halts {
			return ret, nil
		}
		if in.pcSet {
			in.pcSet = false
			continue
		}
		*pc++
	}
}

// jumpTable maps every opcode byte to its operation. Entries with a nil
// execute are undefined opcodes (ErrInvalidOpcode, no gas charged).
var jumpTable = newJumpTable()

func newJumpTable() [256]operation {
	var t [256]operation
	set := func(op OpCode, o operation) { t[op] = o }

	binop := func(op OpCode, gas uint64, exec executionFunc) {
		set(op, operation{execute: exec, constGas: gas, minStack: 2, maxStack: maxStackFor(2, 1)})
	}
	unop := func(op OpCode, exec executionFunc) {
		set(op, operation{execute: exec, constGas: gasFastestStep, minStack: 1, maxStack: maxStackFor(1, 1)})
	}
	pushEnv := func(op OpCode, gas uint64, exec executionFunc) {
		set(op, operation{execute: exec, constGas: gas, minStack: 0, maxStack: maxStackFor(0, 1)})
	}

	set(STOP, operation{execute: opStop, constGas: 0, halts: true, maxStack: StackLimit})
	binop(ADD, gasFastestStep, opAdd)
	binop(MUL, gasFastStep, opMul)
	binop(SUB, gasFastestStep, opSub)
	binop(DIV, gasFastStep, opDiv)
	binop(MOD, gasFastStep, opMod)
	binop(EXP, gasSlowStep, opExp)
	binop(LT, gasFastestStep, opLt)
	binop(GT, gasFastestStep, opGt)
	binop(EQ, gasFastestStep, opEq)
	unop(ISZERO, opIszero)
	binop(AND, gasFastestStep, opAnd)
	binop(OR, gasFastestStep, opOr)
	binop(XOR, gasFastestStep, opXor)
	unop(NOT, opNot)
	binop(BYTE, gasFastestStep, opByte)
	binop(SHL, gasFastestStep, opShl)
	binop(SHR, gasFastestStep, opShr)

	set(SHA3, operation{execute: opSha3, dynamic: true, minStack: 2, maxStack: maxStackFor(2, 1), memSize: memSha3})

	pushEnv(ADDRESS, gasQuickStep, opAddress)
	set(BALANCE, operation{execute: opBalance, constGas: gasBalance, minStack: 1, maxStack: maxStackFor(1, 1)})
	pushEnv(CALLER, gasQuickStep, opCaller)
	pushEnv(CALLVALUE, gasQuickStep, opCallValue)
	set(CALLDATALOAD, operation{execute: opCalldataLoad, constGas: gasFastestStep, minStack: 1, maxStack: maxStackFor(1, 1)})
	pushEnv(CALLDATASIZE, gasQuickStep, opCalldataSize)
	set(CALLDATACOPY, operation{execute: opCalldataCopy, dynamic: true, minStack: 3, maxStack: maxStackFor(3, 0), memSize: memCalldataCopy})
	pushEnv(CODESIZE, gasQuickStep, opCodeSize)
	pushEnv(GASPRICE, gasQuickStep, opGasPrice)
	pushEnv(TIMESTAMP, gasQuickStep, opTimestamp)
	pushEnv(NUMBER, gasQuickStep, opNumber)

	set(POP, operation{execute: opPop, constGas: gasQuickStep, minStack: 1, maxStack: maxStackFor(1, 0)})
	set(MLOAD, operation{execute: opMload, constGas: gasFastestStep, minStack: 1, maxStack: maxStackFor(1, 1), memSize: memMload})
	set(MSTORE, operation{execute: opMstore, constGas: gasFastestStep, minStack: 2, maxStack: maxStackFor(2, 0), memSize: memMstore})
	set(MSTORE8, operation{execute: opMstore8, constGas: gasFastestStep, minStack: 2, maxStack: maxStackFor(2, 0), memSize: memMstore8})
	set(SLOAD, operation{execute: opSload, constGas: gasSLoad, minStack: 1, maxStack: maxStackFor(1, 1)})
	// SSTORE validates read-only mode BEFORE popping (reference
	// behaviour: write protection outranks stack underflow), so it
	// declares minStack 0 and checks depth itself.
	set(SSTORE, operation{execute: opSstore, dynamic: true, minStack: 0, maxStack: StackLimit})
	set(JUMP, operation{execute: opJump, constGas: gasMidStep, minStack: 1, maxStack: maxStackFor(1, 0)})
	set(JUMPI, operation{execute: opJumpi, constGas: gasSlowStep, minStack: 2, maxStack: maxStackFor(2, 0)})
	pushEnv(PC, gasQuickStep, opPc)
	pushEnv(MSIZE, gasQuickStep, opMsize)
	pushEnv(GAS, gasQuickStep, opGas)
	set(JUMPDEST, operation{execute: opJumpdest, constGas: gasJumpdest, maxStack: StackLimit})

	// PUSH1 is by far the most frequent opcode in the asm-generated
	// contract, so it gets a single-byte fast path; the general handler
	// stages wider immediates through a 32-byte word.
	set(PUSH1, operation{execute: opPush1, constGas: gasFastestStep, minStack: 0, maxStack: maxStackFor(0, 1)})
	for op := PUSH1 + 1; op <= PUSH32; op++ {
		set(op, operation{execute: opPush, constGas: gasFastestStep, minStack: 0, maxStack: maxStackFor(0, 1)})
	}
	for op := DUP1; op <= DUP16; op++ {
		set(op, operation{execute: opDup, constGas: gasFastestStep, minStack: int(op-DUP1) + 1, maxStack: maxStackFor(0, 1)})
	}
	for op := SWAP1; op <= SWAP16; op++ {
		set(op, operation{execute: opSwap, constGas: gasFastestStep, minStack: int(op-SWAP1) + 2, maxStack: StackLimit})
	}

	set(RETURN, operation{execute: opReturn, constGas: 0, minStack: 2, maxStack: maxStackFor(2, 0), halts: true, memSize: memReturn})
	set(REVERT, operation{execute: opRevert, constGas: 0, minStack: 2, maxStack: maxStackFor(2, 0), halts: true, memSize: memReturn})
	set(INVALID, operation{execute: opInvalid, dynamic: true, maxStack: StackLimit})
	return t
}

// Memory-size fns: evaluated by the loop via peeks, consumed by the
// handler after it pops. Error order within a fn matches the reference's
// asOffset conversion order.

func memMload(s *stack) (uint64, uint64, error) {
	off, err := asOffset(s.peek(0))
	return off, 32, err
}

func memMstore(s *stack) (uint64, uint64, error) {
	off, err := asOffset(s.peek(0))
	return off, 32, err
}

func memMstore8(s *stack) (uint64, uint64, error) {
	off, err := asOffset(s.peek(0))
	return off, 1, err
}

func memSha3(s *stack) (uint64, uint64, error) {
	off, err := asOffset(s.peek(0))
	if err != nil {
		return 0, 0, err
	}
	size, err := asOffset(s.peek(1))
	return off, size, err
}

// memReturn covers RETURN and REVERT (offset, size on top).
func memReturn(s *stack) (uint64, uint64, error) {
	off, err := asOffset(s.peek(0))
	if err != nil {
		return 0, 0, err
	}
	size, err := asOffset(s.peek(1))
	return off, size, err
}

// memCalldataCopy reads memOff (top) and length (third); the data
// offset between them is converted leniently by the handler.
func memCalldataCopy(s *stack) (uint64, uint64, error) {
	off, err := asOffset(s.peek(0))
	if err != nil {
		return 0, 0, err
	}
	size, err := asOffset(s.peek(2))
	return off, size, err
}

// Arithmetic / comparison / bitwise handlers. a is the popped top, b the
// (in-place replaced) second operand — the reference's pop2 order.

func opAdd(in *interpreter, _ *uint64) ([]byte, error) {
	a := in.stack.upop()
	b := in.stack.upeek()
	*b = a.Add(*b)
	return nil, nil
}

func opMul(in *interpreter, _ *uint64) ([]byte, error) {
	a := in.stack.upop()
	b := in.stack.upeek()
	*b = a.Mul(*b)
	return nil, nil
}

func opSub(in *interpreter, _ *uint64) ([]byte, error) {
	a := in.stack.upop()
	b := in.stack.upeek()
	*b = a.Sub(*b)
	return nil, nil
}

func opDiv(in *interpreter, _ *uint64) ([]byte, error) {
	a := in.stack.upop()
	b := in.stack.upeek()
	*b = a.Div(*b)
	return nil, nil
}

func opMod(in *interpreter, _ *uint64) ([]byte, error) {
	a := in.stack.upop()
	b := in.stack.upeek()
	*b = a.Mod(*b)
	return nil, nil
}

func opExp(in *interpreter, _ *uint64) ([]byte, error) {
	a := in.stack.upop()
	b := in.stack.upeek()
	*b = a.Exp(*b)
	return nil, nil
}

func opLt(in *interpreter, _ *uint64) ([]byte, error) {
	a := in.stack.upop()
	b := in.stack.upeek()
	*b = boolWord(a.Lt(*b))
	return nil, nil
}

func opGt(in *interpreter, _ *uint64) ([]byte, error) {
	a := in.stack.upop()
	b := in.stack.upeek()
	*b = boolWord(a.Gt(*b))
	return nil, nil
}

func opEq(in *interpreter, _ *uint64) ([]byte, error) {
	a := in.stack.upop()
	b := in.stack.upeek()
	*b = boolWord(a.Eq(*b))
	return nil, nil
}

func opIszero(in *interpreter, _ *uint64) ([]byte, error) {
	b := in.stack.upeek()
	*b = boolWord(b.IsZero())
	return nil, nil
}

func opAnd(in *interpreter, _ *uint64) ([]byte, error) {
	a := in.stack.upop()
	b := in.stack.upeek()
	*b = a.And(*b)
	return nil, nil
}

func opOr(in *interpreter, _ *uint64) ([]byte, error) {
	a := in.stack.upop()
	b := in.stack.upeek()
	*b = a.Or(*b)
	return nil, nil
}

func opXor(in *interpreter, _ *uint64) ([]byte, error) {
	a := in.stack.upop()
	b := in.stack.upeek()
	*b = a.Xor(*b)
	return nil, nil
}

func opNot(in *interpreter, _ *uint64) ([]byte, error) {
	b := in.stack.upeek()
	*b = b.Not()
	return nil, nil
}

func opByte(in *interpreter, _ *uint64) ([]byte, error) {
	n := in.stack.upop()
	x := in.stack.upeek()
	if idx, ok := n.Uint64(); ok {
		*x = x.Byte(idx)
	} else {
		*x = uint256.Zero
	}
	return nil, nil
}

func opShl(in *interpreter, _ *uint64) ([]byte, error) {
	n := in.stack.upop()
	x := in.stack.upeek()
	if sh, ok := n.Uint64(); ok {
		*x = x.Lsh(uint(sh))
	} else {
		*x = uint256.Zero
	}
	return nil, nil
}

func opShr(in *interpreter, _ *uint64) ([]byte, error) {
	n := in.stack.upop()
	x := in.stack.upeek()
	if sh, ok := n.Uint64(); ok {
		*x = x.Rsh(uint(sh))
	} else {
		*x = uint256.Zero
	}
	return nil, nil
}

func opSha3(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.udrop(2)
	if in.memErr != nil {
		return nil, in.memErr
	}
	off, size := in.memOff, in.memLen
	words := (size + 31) / 32
	if err := in.useGas(gasSha3 + gasSha3Word*words); err != nil {
		return nil, err
	}
	if err := in.chargeMemory(off, size); err != nil {
		return nil, err
	}
	// Gas is charged identically either way; only the digest itself may
	// be served from the elision layer (per-tx hint / content memo)
	// instead of the sponge. CallGeneric's SHA3 stays on the raw sponge
	// as the differential reference.
	in.stack.upush(intOf(in.evm.sha3(in.mem.view(off, size))))
	return nil, nil
}

// Environment handlers.

func opStop(*interpreter, *uint64) ([]byte, error) { return nil, nil }

func opAddress(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.upush(intOf(in.ctx.Contract.Word()))
	return nil, nil
}

func opBalance(in *interpreter, _ *uint64) ([]byte, error) {
	a := in.stack.upeek()
	bal := in.evm.state.GetBalance(wordOf(*a).Address())
	*a = uint256.NewFromUint64(bal)
	return nil, nil
}

func opCaller(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.upush(intOf(in.ctx.Caller.Word()))
	return nil, nil
}

func opCallValue(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.upush(uint256.NewFromUint64(in.ctx.Value))
	return nil, nil
}

func opCalldataLoad(in *interpreter, _ *uint64) ([]byte, error) {
	v := in.stack.upeek()
	off, ok := v.Uint64()
	if !ok {
		*v = uint256.Zero
		return nil, nil
	}
	var word [32]byte
	for i := uint64(0); i < 32; i++ {
		if off+i < uint64(len(in.input)) {
			word[i] = in.input[off+i]
		}
	}
	*v = uint256.FromBytes32(word)
	return nil, nil
}

func opCalldataSize(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.upush(uint256.NewFromUint64(uint64(len(in.input))))
	return nil, nil
}

func opCalldataCopy(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.upop() // memOff: precomputed by memCalldataCopy
	dataOffV := in.stack.upop()
	in.stack.upop() // length: precomputed by memCalldataCopy
	if in.memErr != nil {
		return nil, in.memErr
	}
	memOff, size := in.memOff, in.memLen
	if err := in.useGas(gasFastestStep + gasCopyWord*((size+31)/32)); err != nil {
		return nil, err
	}
	if err := in.chargeMemory(memOff, size); err != nil {
		return nil, err
	}
	if size == 0 {
		return nil, nil
	}
	// chargeMemory expanded the backing store, so write straight into it
	// instead of staging a chunk.
	dst := in.mem.view(memOff, size)
	dataOff, ok := dataOffV.Uint64()
	for i := uint64(0); i < size; i++ {
		if ok && dataOff+i < uint64(len(in.input)) {
			dst[i] = in.input[dataOff+i]
		} else {
			dst[i] = 0
		}
	}
	return nil, nil
}

func opCodeSize(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.upush(uint256.NewFromUint64(uint64(len(in.code))))
	return nil, nil
}

func opGasPrice(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.upush(uint256.NewFromUint64(in.ctx.GasPrice))
	return nil, nil
}

func opTimestamp(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.upush(uint256.NewFromUint64(in.evm.block.Time))
	return nil, nil
}

func opNumber(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.upush(uint256.NewFromUint64(in.evm.block.Number))
	return nil, nil
}

// Stack / memory / storage handlers.

func opPop(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.udrop(1)
	return nil, nil
}

func opMload(in *interpreter, _ *uint64) ([]byte, error) {
	v := in.stack.upeek()
	if in.memErr != nil {
		in.stack.udrop(1)
		return nil, in.memErr
	}
	if err := in.chargeMemory(in.memOff, 32); err != nil {
		in.stack.udrop(1)
		return nil, err
	}
	*v = uint256.FromBytes(in.mem.view(in.memOff, 32))
	return nil, nil
}

func opMstore(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.upop()
	valV := in.stack.upop()
	if in.memErr != nil {
		return nil, in.memErr
	}
	if err := in.chargeMemory(in.memOff, 32); err != nil {
		return nil, err
	}
	w := valV.Bytes32()
	in.mem.set(in.memOff, w[:])
	return nil, nil
}

func opMstore8(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.upop()
	valV := in.stack.upop()
	if in.memErr != nil {
		return nil, in.memErr
	}
	if err := in.chargeMemory(in.memOff, 1); err != nil {
		return nil, err
	}
	b, _ := valV.Uint64()
	in.mem.view(in.memOff, 1)[0] = byte(b)
	return nil, nil
}

func opSload(in *interpreter, _ *uint64) ([]byte, error) {
	v := in.stack.upeek()
	*v = intOf(in.evm.state.GetState(in.ctx.Contract, wordOf(*v)))
	return nil, nil
}

func opSstore(in *interpreter, _ *uint64) ([]byte, error) {
	if in.ctx.ReadOnly {
		return nil, ErrWriteProtection
	}
	if in.stack.len() < 2 {
		return nil, ErrStackUnderflow
	}
	keyV := in.stack.upop()
	valV := in.stack.upop()
	key, val := wordOf(keyV), wordOf(valV)
	cur := in.evm.state.GetState(in.ctx.Contract, key)
	cost := uint64(gasSStoreReset)
	if cur.IsZero() && !val.IsZero() {
		cost = gasSStoreSet
	}
	if err := in.useGas(cost); err != nil {
		return nil, err
	}
	in.evm.state.SetState(in.ctx.Contract, key, val)
	return nil, nil
}

// Control-flow handlers.

func opJump(in *interpreter, pc *uint64) ([]byte, error) {
	destV := in.stack.upop()
	dest, ok := destV.Uint64()
	if !ok || !in.dests.isSet(dest) {
		return nil, ErrInvalidJump
	}
	*pc = dest
	in.pcSet = true
	return nil, nil
}

func opJumpi(in *interpreter, pc *uint64) ([]byte, error) {
	destV := in.stack.upop()
	condV := in.stack.upop()
	if condV.IsZero() {
		return nil, nil
	}
	dest, ok := destV.Uint64()
	if !ok || !in.dests.isSet(dest) {
		return nil, ErrInvalidJump
	}
	*pc = dest
	in.pcSet = true
	return nil, nil
}

func opPc(in *interpreter, pc *uint64) ([]byte, error) {
	in.stack.upush(uint256.NewFromUint64(*pc))
	return nil, nil
}

func opMsize(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.upush(uint256.NewFromUint64(in.mem.len()))
	return nil, nil
}

func opGas(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.upush(uint256.NewFromUint64(in.gasLeft))
	return nil, nil
}

func opJumpdest(*interpreter, *uint64) ([]byte, error) { return nil, nil }

func opPush1(in *interpreter, pc *uint64) ([]byte, error) {
	var v uint64
	if *pc+1 < uint64(len(in.code)) {
		v = uint64(in.code[*pc+1])
	}
	in.stack.upush(uint256.NewFromUint64(v))
	*pc += 2
	in.pcSet = true
	return nil, nil
}

func opPush(in *interpreter, pc *uint64) ([]byte, error) {
	op := OpCode(in.code[*pc])
	size := uint64(op.PushSize())
	codeLen := uint64(len(in.code))
	start := *pc + 1
	end := start + size
	// Truncated immediates are right-padded with zeroes within the
	// declared size, then left-aligned into the 32-byte word — exactly
	// the reference's make+copy+FromBytes sequence, minus the alloc.
	var word [32]byte
	if start < codeLen {
		chunk := in.code[start:min(end, codeLen)]
		copy(word[32-size:], chunk)
	}
	in.stack.upush(uint256.FromBytes32(word))
	*pc = end
	in.pcSet = true
	return nil, nil
}

func opDup(in *interpreter, pc *uint64) ([]byte, error) {
	n := int(in.code[*pc]-byte(DUP1)) + 1
	in.stack.upush(in.stack.data[in.stack.len()-n])
	return nil, nil
}

func opSwap(in *interpreter, pc *uint64) ([]byte, error) {
	n := int(in.code[*pc]-byte(SWAP1)) + 1
	top := in.stack.len() - 1
	in.stack.data[top], in.stack.data[top-n] = in.stack.data[top-n], in.stack.data[top]
	return nil, nil
}

// Halting handlers.

func opReturn(in *interpreter, _ *uint64) ([]byte, error) {
	in.stack.udrop(2)
	if in.memErr != nil {
		return nil, in.memErr
	}
	if err := in.chargeMemory(in.memOff, in.memLen); err != nil {
		return nil, err
	}
	if in.memLen == 0 {
		return nil, nil
	}
	// The range must outlive the pooled memory: it is copied into the
	// machine's return buffer, which the Result aliases.
	e := in.evm
	e.ret = append(e.ret[:0], in.mem.view(in.memOff, in.memLen)...)
	return e.ret, nil
}

func opRevert(in *interpreter, pc *uint64) ([]byte, error) {
	ret, err := opReturn(in, pc)
	if err != nil {
		return nil, err
	}
	return ret, ErrExecutionRevert
}

func opInvalid(*interpreter, *uint64) ([]byte, error) { return nil, ErrInvalidOpcode }
