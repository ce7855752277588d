package evm

import "fmt"

// OpCode is a single EVM instruction byte.
type OpCode byte

// Instruction set. Values match the Ethereum specification so bytecode is
// portable across tools.
const (
	STOP OpCode = 0x00
	ADD  OpCode = 0x01
	MUL  OpCode = 0x02
	SUB  OpCode = 0x03
	DIV  OpCode = 0x04
	MOD  OpCode = 0x06
	EXP  OpCode = 0x0a

	LT     OpCode = 0x10
	GT     OpCode = 0x11
	EQ     OpCode = 0x14
	ISZERO OpCode = 0x15
	AND    OpCode = 0x16
	OR     OpCode = 0x17
	XOR    OpCode = 0x18
	NOT    OpCode = 0x19
	BYTE   OpCode = 0x1a
	SHL    OpCode = 0x1b
	SHR    OpCode = 0x1c

	SHA3 OpCode = 0x20

	ADDRESS      OpCode = 0x30
	BALANCE      OpCode = 0x31
	CALLER       OpCode = 0x33
	CALLVALUE    OpCode = 0x34
	CALLDATALOAD OpCode = 0x35
	CALLDATASIZE OpCode = 0x36
	CALLDATACOPY OpCode = 0x37
	CODESIZE     OpCode = 0x38
	GASPRICE     OpCode = 0x3a

	TIMESTAMP OpCode = 0x42
	NUMBER    OpCode = 0x43

	POP      OpCode = 0x50
	MLOAD    OpCode = 0x51
	MSTORE   OpCode = 0x52
	MSTORE8  OpCode = 0x53
	SLOAD    OpCode = 0x54
	SSTORE   OpCode = 0x55
	JUMP     OpCode = 0x56
	JUMPI    OpCode = 0x57
	PC       OpCode = 0x58
	MSIZE    OpCode = 0x59
	GAS      OpCode = 0x5a
	JUMPDEST OpCode = 0x5b

	PUSH1  OpCode = 0x60
	PUSH32 OpCode = 0x7f
	DUP1   OpCode = 0x80
	DUP16  OpCode = 0x8f
	SWAP1  OpCode = 0x90
	SWAP16 OpCode = 0x9f

	RETURN  OpCode = 0xf3
	REVERT  OpCode = 0xfd
	INVALID OpCode = 0xfe
)

// IsPush reports whether op is one of PUSH1..PUSH32.
func (op OpCode) IsPush() bool { return op >= PUSH1 && op <= PUSH32 }

// PushSize returns the immediate size for a PUSH opcode.
func (op OpCode) PushSize() int { return int(op-PUSH1) + 1 }

var opNames = map[OpCode]string{
	STOP: "STOP", ADD: "ADD", MUL: "MUL", SUB: "SUB", DIV: "DIV", MOD: "MOD",
	EXP: "EXP", LT: "LT", GT: "GT", EQ: "EQ", ISZERO: "ISZERO", AND: "AND",
	OR: "OR", XOR: "XOR", NOT: "NOT", BYTE: "BYTE", SHL: "SHL", SHR: "SHR",
	SHA3: "SHA3", ADDRESS: "ADDRESS", BALANCE: "BALANCE", CALLER: "CALLER",
	CALLVALUE: "CALLVALUE", CALLDATALOAD: "CALLDATALOAD",
	CALLDATASIZE: "CALLDATASIZE", CALLDATACOPY: "CALLDATACOPY",
	CODESIZE: "CODESIZE", GASPRICE: "GASPRICE", TIMESTAMP: "TIMESTAMP",
	NUMBER: "NUMBER", POP: "POP", MLOAD: "MLOAD", MSTORE: "MSTORE",
	MSTORE8: "MSTORE8", SLOAD: "SLOAD", SSTORE: "SSTORE", JUMP: "JUMP",
	JUMPI: "JUMPI", PC: "PC", MSIZE: "MSIZE", GAS: "GAS",
	JUMPDEST: "JUMPDEST", RETURN: "RETURN", REVERT: "REVERT",
	INVALID: "INVALID",
}

// String returns the mnemonic for the opcode.
func (op OpCode) String() string {
	if name, ok := opNames[op]; ok {
		return name
	}
	if op.IsPush() {
		return fmt.Sprintf("PUSH%d", op.PushSize())
	}
	if op >= DUP1 && op <= DUP16 {
		return fmt.Sprintf("DUP%d", int(op-DUP1)+1)
	}
	if op >= SWAP1 && op <= SWAP16 {
		return fmt.Sprintf("SWAP%d", int(op-SWAP1)+1)
	}
	return fmt.Sprintf("UNDEFINED(0x%02x)", byte(op))
}

// Gas cost schedule: simplified Frontier-style constants. Only relative
// costs matter here — they set how many transactions fit in a block.
const (
	gasQuickStep   = 2
	gasFastestStep = 3
	gasFastStep    = 5
	gasMidStep     = 8
	gasSlowStep    = 10
	gasBalance     = 400
	gasSLoad       = 200
	gasSStoreSet   = 20000
	gasSStoreReset = 5000
	gasSha3        = 30
	gasSha3Word    = 6
	gasMemoryWord  = 3
	gasJumpdest    = 1
	gasCopyWord    = 3

	// TxGas is the intrinsic cost of any transaction.
	TxGas = 21000
	// TxDataZeroGas is the per-zero-byte calldata cost.
	TxDataZeroGas = 4
	// TxDataNonZeroGas is the per-nonzero-byte calldata cost.
	TxDataNonZeroGas = 68
)

// IntrinsicGas returns the up-front gas cost of a transaction with the
// given calldata.
func IntrinsicGas(data []byte) uint64 {
	gas := uint64(TxGas)
	for _, b := range data {
		if b == 0 {
			gas += TxDataZeroGas
		} else {
			gas += TxDataNonZeroGas
		}
	}
	return gas
}
