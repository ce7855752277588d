package asm

import (
	"sync"

	"sereth/internal/evm"
	"sereth/internal/types"
)

// Storage layout of the Sereth contract (paper Listing 1). The AMV tuple
// p = (address, mark, value) lives in slots 0-2; the success counters in
// slots 3-4.
const (
	SlotAddress = 0 // p[0]: last successful actor
	SlotMark    = 1 // p[1]: current mark
	SlotValue   = 2 // p[2]: current value (the price)
	SlotNSet    = 3 // nSet counter
	SlotNBuy    = 4 // nBuy counter
)

// Function signatures of the Sereth contract ABI.
const (
	SigSet  = "set(bytes32[3])"
	SigBuy  = "buy(bytes32[3])"
	SigGet  = "get(bytes32[3])"
	SigMark = "mark(bytes32[3])"
)

// Selectors of the Sereth contract functions, computed with Keccak-256
// exactly as Solidity would.
var (
	SelSet  = types.SelectorFor(SigSet)
	SelBuy  = types.SelectorFor(SigBuy)
	SelGet  = types.SelectorFor(SigGet)
	SelMark = types.SelectorFor(SigMark)
)

// Calldata offsets of the three FPV/RAA argument words.
const (
	argFlag  = 4
	argPrev  = 36
	argValue = 68
)

// Scratch memory map used by the contract body.
const (
	memScratchA = 0x00
	memScratchB = 0x20
	memReturn   = 0x40
)

// SerethContract returns the runtime bytecode of the Sereth contract,
// assembled once per process. The slice is shared by every caller and
// must not be written: install it with a SetCode, which copies, and copy
// it before editing (the exported sereth.SerethContract returns a copy).
func SerethContract() []byte { return serethCode() }

var serethCode = sync.OnceValue(assembleSereth)

// assembleSereth assembles the runtime bytecode of the Sereth contract.
//
// Semantics (mirroring paper Listing 1):
//
//	set(fpv):  if keccak(fpv.prev) == keccak(p.mark) {
//	               nSet++; p.addr = caller;
//	               p.mark = keccak(fpv.prev, fpv.value); p.value = fpv.value;
//	               return 1 }
//	           else return 0
//	buy(offer): if keccak(offer.prev)==keccak(p.mark) &&
//	               keccak(offer.value)==keccak(p.value) {
//	               nBuy++; p.addr = caller; return 1 }
//	           else return 0
//	get(raa):  pure; returns raa[2] (augmented by RAA on Sereth clients)
//	mark(raa): pure; returns raa[1]
//
// Failed set/buy calls RETURN 0 without touching storage: the transaction
// is still included in its block (paper §II-D failure semantics).
func assembleSereth() []byte {
	p := NewProgram()

	// --- dispatcher -----------------------------------------------------
	// selector = calldata[0:4] as a uint32: CALLDATALOAD(0) >> 224.
	p.PushInt(0).Op(evm.CALLDATALOAD). // [data0]
						PushInt(224).Op(evm.SHR) // [selector] (SHR pops the shift from the top)

	dispatch := func(sel types.Selector, label string) {
		p.Op(evm.DUP1).PushSelector(sel).Op(evm.EQ). // [selector, eq]
								PushLabel(label).Op(evm.JUMPI) // [selector]
	}
	dispatch(SelSet, "set")
	dispatch(SelBuy, "buy")
	dispatch(SelGet, "get")
	dispatch(SelMark, "mark")
	p.Op(evm.STOP) // unknown selector: no-op

	// --- helpers --------------------------------------------------------
	// hashWord: emits code that replaces the stack top with keccak(top)
	// using scratch A.
	hashTop := func() {
		p.PushInt(memScratchA).Op(evm.MSTORE). // mem[A] = top
							PushInt(32).PushInt(memScratchA).Op(evm.SHA3) // [keccak]
	}
	returnWord := func() {
		// stack: [word] -> RETURN 32 bytes from memReturn
		p.PushInt(memReturn).Op(evm.MSTORE).
			PushInt(32).PushInt(memReturn).Op(evm.RETURN)
	}
	returnConst := func(v uint64) {
		p.PushInt(v)
		returnWord()
	}

	// --- set ------------------------------------------------------------
	p.Label("set")
	// keccak(fpv.prev) == keccak(p.mark)?
	p.PushInt(argPrev).Op(evm.CALLDATALOAD)
	hashTop()
	p.PushInt(SlotMark).Op(evm.SLOAD)
	hashTop()
	p.Op(evm.EQ).PushLabel("set_ok").Op(evm.JUMPI)
	returnConst(0)

	p.Label("set_ok")
	// nSet++
	p.PushInt(SlotNSet).Op(evm.SLOAD).PushInt(1).Op(evm.ADD). // [nSet+1]
									PushInt(SlotNSet).Op(evm.SSTORE)
	// p.addr = caller
	p.Op(evm.CALLER).PushInt(SlotAddress).Op(evm.SSTORE)
	// p.mark = keccak(prev ‖ value)
	p.PushInt(argPrev).Op(evm.CALLDATALOAD).PushInt(memScratchA).Op(evm.MSTORE)
	p.PushInt(argValue).Op(evm.CALLDATALOAD).PushInt(memScratchB).Op(evm.MSTORE)
	p.PushInt(64).PushInt(memScratchA).Op(evm.SHA3). // [newMark]
								PushInt(SlotMark).Op(evm.SSTORE)
	// p.value = fpv.value
	p.PushInt(argValue).Op(evm.CALLDATALOAD).PushInt(SlotValue).Op(evm.SSTORE)
	returnConst(1)

	// --- buy ------------------------------------------------------------
	p.Label("buy")
	// keccak(offer.prev) == keccak(p.mark)
	p.PushInt(argPrev).Op(evm.CALLDATALOAD)
	hashTop()
	p.PushInt(SlotMark).Op(evm.SLOAD)
	hashTop()
	p.Op(evm.EQ) // [eq1]
	// keccak(offer.value) == keccak(p.value)
	p.PushInt(argValue).Op(evm.CALLDATALOAD)
	hashTop()
	p.PushInt(SlotValue).Op(evm.SLOAD)
	hashTop()
	p.Op(evm.EQ)                                    // [eq1, eq2]
	p.Op(evm.AND).PushLabel("buy_ok").Op(evm.JUMPI) // []
	returnConst(0)

	p.Label("buy_ok")
	// nBuy++
	p.PushInt(SlotNBuy).Op(evm.SLOAD).PushInt(1).Op(evm.ADD).
		PushInt(SlotNBuy).Op(evm.SSTORE)
	// p.addr = caller
	p.Op(evm.CALLER).PushInt(SlotAddress).Op(evm.SSTORE)
	returnConst(1)

	// --- get ------------------------------------------------------------
	// pure: returns raa[2]; RAA rewrites the argument on Sereth clients.
	p.Label("get")
	p.PushInt(argValue).Op(evm.CALLDATALOAD)
	returnWord()

	// --- mark -----------------------------------------------------------
	// pure: returns raa[1].
	p.Label("mark")
	p.PushInt(argPrev).Op(evm.CALLDATALOAD)
	returnWord()

	return p.MustAssemble()
}
