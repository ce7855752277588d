package evm

// The reference interpreter: the original monolithic switch, with its own
// gas table, checked stack and map-form jump analysis. It is the
// differential oracle the jump table is pinned bit-identical to
// (FuzzInterpreter, TestJumpTableMatchesGeneric, the SHA3 elision
// differentials) and is compiled into no binary.

import (
	"sereth/internal/types"
	"sereth/internal/uint256"
)

// genericInterpreter is the reference interpreter's per-call state: the
// shared execution state plus its map-based jumpdest set and the
// taken-jump carrier.
type genericInterpreter struct {
	interpreter
	jumpDest   map[uint64]bool
	pcOverride *uint64
}

// CallGeneric runs the same call as Call through the monolithic-switch
// reference interpreter.
func (e *EVM) CallGeneric(ctx CallContext) Result {
	code, input, empty := e.prepare(ctx)
	if empty {
		return Result{GasUsed: 0}
	}
	in := &genericInterpreter{
		interpreter: interpreter{evm: e, ctx: ctx, input: input, code: code, gasLeft: ctx.Gas},
		jumpDest:    analyzeJumpDests(code),
	}
	in.stack.data = make([]uint256.Int, 0, 16)
	ret, err := in.runGeneric()
	return e.finish(ctx, in.gasLeft, ret, err)
}

// get returns a copy of [offset, offset+size) of memory, nil for size 0.
func (m *memory) get(offset, size uint64) []byte {
	if size == 0 {
		return nil
	}
	out := make([]byte, size)
	copy(out, m.data[offset:offset+size])
	return out
}

func analyzeJumpDests(code []byte) map[uint64]bool {
	dests := make(map[uint64]bool)
	for pc := 0; pc < len(code); pc++ {
		op := OpCode(code[pc])
		if op == JUMPDEST {
			dests[uint64(pc)] = true
		} else if op.IsPush() {
			pc += op.PushSize()
		}
	}
	return dests
}

// constGas maps simple opcodes to their fixed gas cost. Dynamic costs
// (SSTORE, SHA3, memory growth, copies) are charged in the interpreter.
var constGas = map[OpCode]uint64{
	STOP: 0, ADD: gasFastestStep, MUL: gasFastStep, SUB: gasFastestStep,
	DIV: gasFastStep, MOD: gasFastStep, EXP: gasSlowStep,
	LT: gasFastestStep, GT: gasFastestStep, EQ: gasFastestStep,
	ISZERO: gasFastestStep, AND: gasFastestStep, OR: gasFastestStep,
	XOR: gasFastestStep, NOT: gasFastestStep, BYTE: gasFastestStep,
	SHL: gasFastestStep, SHR: gasFastestStep,
	ADDRESS: gasQuickStep, BALANCE: gasBalance, CALLER: gasQuickStep,
	CALLVALUE: gasQuickStep, CALLDATALOAD: gasFastestStep,
	CALLDATASIZE: gasQuickStep, CODESIZE: gasQuickStep,
	GASPRICE: gasQuickStep, TIMESTAMP: gasQuickStep, NUMBER: gasQuickStep,
	POP: gasQuickStep, MLOAD: gasFastestStep, MSTORE: gasFastestStep,
	MSTORE8: gasFastestStep, SLOAD: gasSLoad, JUMP: gasMidStep,
	JUMPI: gasSlowStep, PC: gasQuickStep, MSIZE: gasQuickStep,
	GAS: gasQuickStep, JUMPDEST: gasJumpdest, RETURN: 0, REVERT: 0,
}

// runGeneric is the reference interpreter: the original monolithic
// switch, kept bit-identical to the jump table by the differential fuzz.
func (in *genericInterpreter) runGeneric() ([]byte, error) {
	var pc uint64
	for {
		if pc >= uint64(len(in.code)) {
			return nil, nil // implicit STOP
		}
		op := OpCode(in.code[pc])

		// Fixed-cost charging.
		switch {
		case op.IsPush(), op >= DUP1 && op <= SWAP16:
			if err := in.useGas(gasFastestStep); err != nil {
				return nil, err
			}
		default:
			cost, known := constGas[op]
			if !known && op != SSTORE && op != SHA3 && op != CALLDATACOPY && op != INVALID {
				return nil, ErrInvalidOpcode
			}
			if known {
				if err := in.useGas(cost); err != nil {
					return nil, err
				}
			}
		}

		switch {
		case op == STOP:
			return nil, nil

		case op.IsPush():
			size := uint64(op.PushSize())
			end := pc + 1 + size
			var chunk []byte
			if pc+1 >= uint64(len(in.code)) {
				chunk = nil
			} else if end > uint64(len(in.code)) {
				chunk = in.code[pc+1:]
			} else {
				chunk = in.code[pc+1 : end]
			}
			// Right-pad truncated immediates with zeroes.
			padded := make([]byte, size)
			copy(padded, chunk)
			if err := in.stack.push(uint256.FromBytes(padded)); err != nil {
				return nil, err
			}
			pc = end
			continue

		case op >= DUP1 && op <= DUP16:
			if err := in.stack.dup(int(op-DUP1) + 1); err != nil {
				return nil, err
			}

		case op >= SWAP1 && op <= SWAP16:
			if err := in.stack.swap(int(op-SWAP1) + 1); err != nil {
				return nil, err
			}

		default:
			done, ret, err := in.execute(op, pc)
			if err != nil {
				return ret, err
			}
			if done {
				return ret, nil
			}
			if in.pcOverride != nil {
				pc = *in.pcOverride
				in.pcOverride = nil
				continue
			}
		}
		pc++
	}
}

// execute handles every non-push/dup/swap opcode for the generic
// reference interpreter. It returns done=true on RETURN/STOP-like halts.
func (in *genericInterpreter) execute(op OpCode, pc uint64) (done bool, ret []byte, err error) {
	s := &in.stack
	switch op {
	case ADD:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Add(b))
	case MUL:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Mul(b))
	case SUB:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Sub(b))
	case DIV:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Div(b))
	case MOD:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Mod(b))
	case EXP:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Exp(b))
	case LT:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(boolWord(a.Lt(b)))
	case GT:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(boolWord(a.Gt(b)))
	case EQ:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(boolWord(a.Eq(b)))
	case ISZERO:
		a, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(boolWord(a.IsZero()))
	case AND:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.And(b))
	case OR:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Or(b))
	case XOR:
		a, b, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Xor(b))
	case NOT:
		a, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		return false, nil, s.push(a.Not())
	case BYTE:
		n, x, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		idx, ok := n.Uint64()
		if !ok {
			return false, nil, s.push(uint256.Zero)
		}
		return false, nil, s.push(x.Byte(idx))
	case SHL:
		n, x, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		sh, ok := n.Uint64()
		if !ok {
			return false, nil, s.push(uint256.Zero)
		}
		return false, nil, s.push(x.Lsh(uint(sh)))
	case SHR:
		n, x, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		sh, ok := n.Uint64()
		if !ok {
			return false, nil, s.push(uint256.Zero)
		}
		return false, nil, s.push(x.Rsh(uint(sh)))

	case SHA3:
		offV, sizeV, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		off, err := asOffset(offV)
		if err != nil {
			return false, nil, err
		}
		size, err := asOffset(sizeV)
		if err != nil {
			return false, nil, err
		}
		words := (size + 31) / 32
		if err := in.useGas(gasSha3 + gasSha3Word*words); err != nil {
			return false, nil, err
		}
		if err := in.chargeMemory(off, size); err != nil {
			return false, nil, err
		}
		h := types.Keccak(in.mem.get(off, size))
		return false, nil, s.push(intOf(h.Word()))

	case ADDRESS:
		return false, nil, s.push(intOf(in.ctx.Contract.Word()))
	case BALANCE:
		a, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		bal := in.evm.state.GetBalance(wordOf(a).Address())
		return false, nil, s.push(uint256.NewFromUint64(bal))
	case CALLER:
		return false, nil, s.push(intOf(in.ctx.Caller.Word()))
	case CALLVALUE:
		return false, nil, s.push(uint256.NewFromUint64(in.ctx.Value))
	case CALLDATALOAD:
		offV, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		off, ok := offV.Uint64()
		if !ok {
			return false, nil, s.push(uint256.Zero)
		}
		var word [32]byte
		for i := uint64(0); i < 32; i++ {
			if off+i < uint64(len(in.input)) {
				word[i] = in.input[off+i]
			}
		}
		return false, nil, s.push(uint256.FromBytes32(word))
	case CALLDATASIZE:
		return false, nil, s.push(uint256.NewFromUint64(uint64(len(in.input))))
	case CALLDATACOPY:
		memOffV, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		dataOffV, lenV, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		memOff, err := asOffset(memOffV)
		if err != nil {
			return false, nil, err
		}
		size, err := asOffset(lenV)
		if err != nil {
			return false, nil, err
		}
		if err := in.useGas(gasFastestStep + gasCopyWord*((size+31)/32)); err != nil {
			return false, nil, err
		}
		if err := in.chargeMemory(memOff, size); err != nil {
			return false, nil, err
		}
		chunk := make([]byte, size)
		if dataOff, ok := dataOffV.Uint64(); ok {
			for i := uint64(0); i < size; i++ {
				if dataOff+i < uint64(len(in.input)) {
					chunk[i] = in.input[dataOff+i]
				}
			}
		}
		in.mem.set(memOff, chunk)
		return false, nil, nil
	case CODESIZE:
		return false, nil, s.push(uint256.NewFromUint64(uint64(len(in.code))))
	case GASPRICE:
		return false, nil, s.push(uint256.NewFromUint64(in.ctx.GasPrice))
	case TIMESTAMP:
		return false, nil, s.push(uint256.NewFromUint64(in.evm.block.Time))
	case NUMBER:
		return false, nil, s.push(uint256.NewFromUint64(in.evm.block.Number))

	case POP:
		_, err := s.pop()
		return false, nil, err
	case MLOAD:
		offV, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		off, err := asOffset(offV)
		if err != nil {
			return false, nil, err
		}
		if err := in.chargeMemory(off, 32); err != nil {
			return false, nil, err
		}
		return false, nil, s.push(uint256.FromBytes(in.mem.get(off, 32)))
	case MSTORE:
		offV, valV, err := pop2of(s)
		if err != nil {
			return false, nil, err
		}
		off, err := asOffset(offV)
		if err != nil {
			return false, nil, err
		}
		if err := in.chargeMemory(off, 32); err != nil {
			return false, nil, err
		}
		w := valV.Bytes32()
		in.mem.set(off, w[:])
		return false, nil, nil
	case MSTORE8:
		offV, valV, err := pop2of(s)
		if err != nil {
			return false, nil, err
		}
		off, err := asOffset(offV)
		if err != nil {
			return false, nil, err
		}
		if err := in.chargeMemory(off, 1); err != nil {
			return false, nil, err
		}
		b, _ := valV.Uint64()
		in.mem.set(off, []byte{byte(b)})
		return false, nil, nil

	case SLOAD:
		keyV, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		v := in.evm.state.GetState(in.ctx.Contract, wordOf(keyV))
		return false, nil, s.push(intOf(v))
	case SSTORE:
		if in.ctx.ReadOnly {
			return false, nil, ErrWriteProtection
		}
		keyV, valV, err := pop2of(s)
		if err != nil {
			return false, nil, err
		}
		key, val := wordOf(keyV), wordOf(valV)
		cur := in.evm.state.GetState(in.ctx.Contract, key)
		cost := uint64(gasSStoreReset)
		if cur.IsZero() && !val.IsZero() {
			cost = gasSStoreSet
		}
		if err := in.useGas(cost); err != nil {
			return false, nil, err
		}
		in.evm.state.SetState(in.ctx.Contract, key, val)
		return false, nil, nil

	case JUMP:
		destV, err := s.pop()
		if err != nil {
			return false, nil, err
		}
		return false, nil, in.doJump(destV)
	case JUMPI:
		destV, condV, err := pop2of(s)
		if err != nil {
			return false, nil, err
		}
		if condV.IsZero() {
			return false, nil, nil
		}
		return false, nil, in.doJump(destV)
	case PC:
		return false, nil, s.push(uint256.NewFromUint64(pc))
	case MSIZE:
		return false, nil, s.push(uint256.NewFromUint64(in.mem.len()))
	case GAS:
		return false, nil, s.push(uint256.NewFromUint64(in.gasLeft))
	case JUMPDEST:
		return false, nil, nil

	case RETURN, REVERT:
		offV, sizeV, err := s.pop2()
		if err != nil {
			return false, nil, err
		}
		off, err := asOffset(offV)
		if err != nil {
			return false, nil, err
		}
		size, err := asOffset(sizeV)
		if err != nil {
			return false, nil, err
		}
		if err := in.chargeMemory(off, size); err != nil {
			return false, nil, err
		}
		data := in.mem.get(off, size)
		if op == REVERT {
			return true, data, ErrExecutionRevert
		}
		return true, data, nil

	case INVALID:
		return false, nil, ErrInvalidOpcode
	default:
		return false, nil, ErrInvalidOpcode
	}
}

func (in *genericInterpreter) doJump(destV uint256.Int) error {
	dest, ok := destV.Uint64()
	if !ok || !in.jumpDest[dest] {
		return ErrInvalidJump
	}
	in.pcOverride = &dest
	return nil
}

func pop2of(s *stack) (uint256.Int, uint256.Int, error) { return s.pop2() }

func (s *stack) push(v uint256.Int) error {
	if len(s.data) >= StackLimit {
		return ErrStackOverflow
	}
	s.data = append(s.data, v)
	return nil
}

func (s *stack) pop() (uint256.Int, error) {
	if len(s.data) == 0 {
		return uint256.Zero, ErrStackUnderflow
	}
	v := s.data[len(s.data)-1]
	s.data = s.data[:len(s.data)-1]
	return v, nil
}

// pop2 pops two operands (top first).
func (s *stack) pop2() (uint256.Int, uint256.Int, error) {
	a, err := s.pop()
	if err != nil {
		return uint256.Zero, uint256.Zero, err
	}
	b, err := s.pop()
	if err != nil {
		return uint256.Zero, uint256.Zero, err
	}
	return a, b, nil
}

// dup duplicates the n-th element from the top (1-based).
func (s *stack) dup(n int) error {
	if len(s.data) < n {
		return ErrStackUnderflow
	}
	return s.push(s.data[len(s.data)-n])
}

// swap exchanges the top with the n-th element below it (1-based).
func (s *stack) swap(n int) error {
	if len(s.data) < n+1 {
		return ErrStackUnderflow
	}
	top := len(s.data) - 1
	s.data[top], s.data[top-n] = s.data[top-n], s.data[top]
	return nil
}
