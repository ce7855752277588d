// Package evm implements a stack-machine interpreter for the Ethereum
// instruction subset used by the Sereth contract, with gas accounting and
// the paper's Runtime Argument Augmentation (RAA) hook: read-only calls
// whose selector is registered with an RAA provider have their argument
// words rewritten by the provider before execution (paper Fig. 1,
// activities E2/R1-R3). State-changing transactions are never augmented —
// their calldata is covered by the sender's signature.
//
// Call dispatches through a precomputed jump table of per-opcode handlers
// (constant gas, stack bounds and memory-size fns resolved at
// table-construction time) over pooled frames. The original monolithic
// switch is its bit-identity reference and lives with the tests
// (generic_test.go): the differential fuzz in interp_test.go pins the two
// to identical results, gas and state effects over random bytecode.
package evm

import (
	"bytes"
	"errors"
	"sync"

	"sereth/internal/types"
	"sereth/internal/uint256"
)

// State is the world-state access surface the interpreter needs.
// *statedb.StateDB satisfies it.
type State interface {
	GetState(addr types.Address, key types.Word) types.Word
	SetState(addr types.Address, key, value types.Word)
	GetCode(addr types.Address) []byte
	GetBalance(addr types.Address) uint64
}

// RAAProvider supplies Runtime Argument Augmentation data. Augment may
// return rewritten calldata for a read-only call into contract, built as
// append(dst[:0], input...) and then rewritten, never in input itself;
// ok=false leaves the call unmodified. dst is a buffer the machine owns
// and reuses, like its return buffer (see Result.ReturnData): the
// augmented calldata lives until the machine's next Call or its Release.
type RAAProvider interface {
	Augment(dst []byte, contract types.Address, input []byte) (augmented []byte, ok bool)
}

// BlockContext exposes block-level environment values to the interpreter.
type BlockContext struct {
	Number uint64
	Time   uint64
}

// CallContext describes one message call.
type CallContext struct {
	Caller   types.Address
	Contract types.Address
	Input    []byte
	Value    uint64
	GasPrice uint64
	Gas      uint64
	// ReadOnly marks a local view/pure call: SSTORE is forbidden and the
	// RAA hook is eligible to rewrite arguments.
	ReadOnly bool
}

// Execution errors.
var (
	ErrOutOfGas        = errors.New("evm: out of gas")
	ErrInvalidJump     = errors.New("evm: invalid jump destination")
	ErrInvalidOpcode   = errors.New("evm: invalid opcode")
	ErrWriteProtection = errors.New("evm: write to state in read-only call")
	ErrExecutionRevert = errors.New("evm: execution reverted")
)

// Result is the outcome of a call.
type Result struct {
	// ReturnData is what RETURN or REVERT handed back. It aliases a
	// buffer the machine owns and reuses: it is valid until the
	// machine's next Call or its Release, and a caller that keeps the
	// bytes longer copies them (node.CallReadOnly does).
	ReturnData []byte
	GasUsed    uint64
	Err        error // nil on normal halt; ErrExecutionRevert on REVERT
}

// Succeeded reports a normal, non-reverted halt.
func (r Result) Succeeded() bool { return r.Err == nil }

// ReturnWord returns the first 32 bytes of the return data as a word.
func (r Result) ReturnWord() types.Word {
	var w types.Word
	copy(w[:], r.ReturnData)
	return w
}

// EVM executes message calls against a State. Instances come from a
// package-level pool (New, Release) and per-call scratch (stack, memory,
// jumpdest analysis) from the frame pool beside it, so a block processor
// and a view read pay no interpreter allocations in steady state.
type EVM struct {
	state State
	block BlockContext
	raa   RAAProvider

	// Hash-elision layer (see elision.go): the executing transaction's
	// admission-derived digest hint, cleared on Reset, and the
	// block-scoped content-keyed SHA3 memo, which persists across Reset
	// because its entries are content-verified and never stale.
	hint TxHint
	memo sha3Memo

	// ret holds the last call's return data (see Result.ReturnData), aug
	// its RAA-augmented calldata (see RAAProvider), in the buffer Input
	// lends.
	ret []byte
	aug []byte
	in  []byte
}

// machinePool recycles interpreters: the SHA3 memo makes one a kilobyte
// of garbage per block and per view read otherwise.
var machinePool = sync.Pool{New: func() any { return new(EVM) }}

// New returns an interpreter bound to the given state and block context,
// with no RAA provider, no hash hint and an empty SHA3 memo.
func New(state State, block BlockContext) *EVM {
	e := machinePool.Get().(*EVM)
	e.state, e.block = state, block
	return e
}

// Release hands the interpreter back for the next New, carrying nothing:
// the memo's hits are byte-verified and would stay correct, but what it
// held would then depend on when the collector last emptied the pool, and
// the digest count of a run with it. Only the capacity of the return,
// augmented-calldata and input buffers is kept — they hold bytes, not
// references, and the next Call or Input overwrites them. The caller must
// not use the machine, a Result it returned or an input it lent, again.
// Optional: a cold caller may leave its machine to the collector.
func (e *EVM) Release() {
	*e = EVM{ret: e.ret[:0], aug: e.aug[:0], in: e.in[:0]}
	machinePool.Put(e)
}

// Input lends the caller n bytes the machine owns to build a call's
// input in, so a pooled machine's caller needs no heap slice of its own
// (a CallContext's Input escapes with it). No Call writes the buffer, so
// one input serves several calls; it is valid until the next Input or
// the machine's Release.
func (e *EVM) Input(n int) []byte {
	if cap(e.in) < n {
		e.in = make([]byte, n)
	}
	e.in = e.in[:n]
	return e.in
}

// Reset rebinds the interpreter to a different state, keeping the block
// context and RAA provider. The parallel block processor points one
// per-worker EVM at each transaction's speculative view; the pooled
// interpreter frames (and their jumpdest memos) are shared through the
// package-level pool either way. The per-transaction hash hint is
// cleared — a recycled worker machine must not carry the previous
// transaction's hint — while the content-keyed SHA3 memo survives (its
// hits are byte-verified, so entries can never go stale).
func (e *EVM) Reset(state State) {
	e.state = state
	e.hint = TxHint{}
}

// SetRAAProvider installs (or clears, with nil) the RAA data service.
// Only Sereth-mode clients install one; standard clients leave it unset
// and argument words pass through unchanged, which is what makes the two
// client types interoperable.
func (e *EVM) SetRAAProvider(p RAAProvider) { e.raa = p }

// Call runs the code at ctx.Contract with the given input through the
// jump-table interpreter.
func (e *EVM) Call(ctx CallContext) Result {
	code, input, empty := e.prepare(ctx)
	if empty {
		return Result{GasUsed: 0}
	}
	f := framePool.Get().(*frame)
	// Deferred release: a handler panic must not leak the frame, and a
	// pooled frame must not pin the last call's state graph while idle.
	defer putFrame(f)
	in := &f.in
	in.reset(e, ctx, input, code)
	in.dests = f.analyze(code)
	ret, err := in.run()
	return e.finish(ctx, in.gasLeft, ret, err)
}

// putFrame clears the interpreter's references into the caller's world
// (EVM/state, calldata, code) before pooling, so an idle frame retains
// only its own scratch buffers and jumpdest memo.
func putFrame(f *frame) {
	f.in.evm = nil
	f.in.ctx = CallContext{}
	f.in.input = nil
	f.in.code = nil
	framePool.Put(f)
}

// prepare resolves the code and (possibly RAA-augmented) input. empty
// reports a code-less target (plain transfer: nothing to execute).
func (e *EVM) prepare(ctx CallContext) (code, input []byte, empty bool) {
	code = e.state.GetCode(ctx.Contract)
	if len(code) == 0 {
		return nil, nil, true
	}
	input = ctx.Input
	if ctx.ReadOnly && e.raa != nil {
		if augmented, ok := e.raa.Augment(e.aug, ctx.Contract, input); ok {
			e.aug, input = augmented, augmented
		}
	}
	return code, input, false
}

// finish converts an interpreter halt into a Result. Hard faults consume
// the entire gas allowance.
func (e *EVM) finish(ctx CallContext, gasLeft uint64, ret []byte, err error) Result {
	gasUsed := ctx.Gas - gasLeft
	if err != nil && !errors.Is(err, ErrExecutionRevert) {
		gasUsed = ctx.Gas
	}
	return Result{ReturnData: ret, GasUsed: gasUsed, Err: err}
}

// interpreter is the per-call execution state. The stack and memory are
// value fields so a pooled frame embeds the whole struct with its scratch
// buffers.
type interpreter struct {
	evm     *EVM
	ctx     CallContext
	input   []byte
	code    []byte
	stack   stack
	mem     memory
	gasLeft uint64
	pc      uint64

	// Valid JUMPDEST bitmap, "handler set pc itself" flag, and the
	// loop-precomputed memory range (see operation.memSize).
	dests  bitvec
	pcSet  bool
	memOff uint64
	memLen uint64
	memErr error
}

// reset rebinds a pooled interpreter to a new call, keeping the scratch
// buffer capacity of previous calls.
func (in *interpreter) reset(e *EVM, ctx CallContext, input, code []byte) {
	in.evm = e
	in.ctx = ctx
	in.input = input
	in.code = code
	in.stack.data = in.stack.data[:0]
	in.mem.data = in.mem.data[:0]
	in.gasLeft = ctx.Gas
	in.pc = 0
	in.dests = nil
	in.pcSet = false
	in.memOff, in.memLen, in.memErr = 0, 0, nil
}

// frame is one pooled interpreter plus its jumpdest-analysis memo: a
// frame that is reused against the same code (the common case — a block
// body calling one contract) skips re-analysis entirely.
type frame struct {
	in    interpreter
	dests bitvec
	// code is a private copy of the last-analyzed bytecode. The memo
	// hit is a content compare, NOT pointer identity: a freed slice can
	// be reallocated at the same address with different bytes, so an
	// address-keyed memo could serve a stale analysis. bytes.Equal is a
	// memcmp — far cheaper than re-analysis.
	code []byte
}

var framePool = sync.Pool{New: func() any {
	f := &frame{}
	f.in.stack.data = make([]uint256.Int, 0, 16)
	return f
}}

// analyze returns the valid-JUMPDEST bitmap for code, reusing the
// frame's previous analysis when the bytecode is unchanged.
func (f *frame) analyze(code []byte) bitvec {
	if bytes.Equal(f.code, code) {
		return f.dests
	}
	f.dests = analyzeJumpDestsBitvec(code, f.dests)
	f.code = append(f.code[:0], code...)
	return f.dests
}

func (in *interpreter) useGas(amount uint64) error {
	if in.gasLeft < amount {
		in.gasLeft = 0
		return ErrOutOfGas
	}
	in.gasLeft -= amount
	return nil
}

// chargeMemory expands memory and charges the linear word cost.
func (in *interpreter) chargeMemory(offset, size uint64) error {
	grown := in.mem.expand(offset, size)
	if grown == 0 {
		return nil
	}
	return in.useGas(grown * gasMemoryWord)
}

func wordOf(v uint256.Int) types.Word { return types.Word(v.Bytes32()) }

func intOf(w types.Word) uint256.Int { return uint256.FromBytes32(w) }

// asOffset converts a stack word to a memory offset/size, failing with
// out-of-gas when it cannot fit (the canonical EVM behaviour for absurd
// offsets).
func asOffset(v uint256.Int) (uint64, error) {
	n, ok := v.Uint64()
	if !ok {
		return 0, ErrOutOfGas
	}
	return n, nil
}

func boolWord(b bool) uint256.Int {
	if b {
		return uint256.One
	}
	return uint256.Zero
}
