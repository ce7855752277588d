// Processor: the unified block-execution pipeline. One Process call
// replays a body against a parent-state copy and produces a complete
// ExecResult — the block's receipts as one slab of values, one
// reused EVM instance for the whole body (its interpreter frames come
// from the evm package's pool), and the state/receipt roots derived
// exactly once per validated execution. The miner (header construction,
// then its own import of the block through InsertBuilt), InsertBlock
// (replay verification) and the shared ExecCache all consume the same
// ExecResult, so no consumer re-derives a root another already paid for.
package chain

import (
	"fmt"

	"sereth/internal/evm"
	"sereth/internal/statedb"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// execState is the world-state surface one transaction application
// mutates. Both *statedb.StateDB (the sequential path and the parallel
// commit/re-run lane) and *statedb.SpecView (the parallel speculation
// lane) satisfy it, so the SAME applyTransaction code is the oracle for
// every execution mode — speculative runs cannot drift semantically
// from the sequential reference.
type execState interface {
	evm.State
	GetNonce(addr types.Address) uint64
	SetNonce(addr types.Address, nonce uint64)
	AddBalance(addr types.Address, amount uint64)
	SubBalance(addr types.Address, amount uint64) bool
	Snapshot() int
	RevertToSnapshot(id int)
	MutatedSince(snap int) bool
}

// Processor executes block bodies for one chain configuration. It is
// stateless between calls (per-block scratch lives in the ExecResult or
// comes from pools), so one instance may be shared by concurrent
// importers.
type Processor struct {
	gasLimit uint64
	registry *wallet.Registry
}

// NewProcessor returns a processor for the given chain configuration.
func NewProcessor(cfg Config) *Processor {
	return &Processor{gasLimit: cfg.GasLimit, registry: cfg.Registry}
}

// Process replays txs on a copy of parentState and returns the full
// validated transition: receipts (one slab, in body order), the
// flushed post state, total gas, and the memoized state and receipt
// roots. The error return is reserved for bodies that may not form a
// block at all (bad signature/nonce, gas limit overrun); logical
// transaction failures produce Failed receipts instead.
func (p *Processor) Process(parentState *statedb.StateDB, header *types.Header, txs []*types.Transaction) (*ExecResult, error) {
	st := parentState.Copy()
	// One journal reservation for the whole body, sized by the shared
	// per-transaction heuristic (statedb.JournalEntriesPerTx — the same
	// constant the parallel processor's per-worker reservations use), so
	// the replay proceeds without a single growth copy.
	st.ReserveJournal(statedb.BodyJournalCapacity(len(txs)))
	// Every receipt of the block is a value in one slab, one allocation
	// for the whole body. The slab is sized exactly and never reused
	// across blocks — receipts outlive the block in the chain's receipt
	// store and the ExecCache.
	receipts := make([]types.Receipt, len(txs))
	// One EVM for the whole body: the state and block context are
	// per-block constants, so rebinding per transaction bought nothing.
	machine := evm.New(st, evm.BlockContext{Number: header.Number, Time: header.Time})
	defer machine.Release()
	var gasUsed uint64
	for i, tx := range txs {
		if gasUsed+tx.GasLimit > p.gasLimit {
			return nil, ErrGasLimitReached
		}
		if err := p.applyTransaction(machine, st, tx, &receipts[i]); err != nil {
			return nil, fmt.Errorf("tx %d: %w", i, err)
		}
		gasUsed += receipts[i].GasUsed
	}
	st.DiscardJournal()
	return &ExecResult{
		Receipts:    receipts,
		Post:        st,
		GasUsed:     gasUsed,
		StateRoot:   st.Root(),
		ReceiptRoot: types.DeriveReceiptRoot(header.Number, txs, receipts),
	}, nil
}

// applyTransaction executes one transaction against st, filling receipt
// in place. The error return is reserved for transactions that may not
// appear in a block at all (bad signature / nonce). Logical failures
// (reverts, EVM faults, contract-reported no-ops) produce a Failed
// receipt with every state effect rolled back.
func (p *Processor) applyTransaction(machine *evm.EVM, st execState, tx *types.Transaction, receipt *types.Receipt) error {
	if p.registry != nil {
		if err := p.registry.VerifyTx(tx); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSignature, err)
		}
	}
	if st.GetNonce(tx.From) != tx.Nonce {
		return fmt.Errorf("%w: account %d, tx %d", ErrBadNonce, st.GetNonce(tx.From), tx.Nonce)
	}
	st.SetNonce(tx.From, tx.Nonce+1)

	intrinsic := evm.IntrinsicGas(tx.Data)
	if intrinsic > tx.GasLimit {
		receipt.Status = types.StatusFailed
		receipt.GasUsed = tx.GasLimit
		return nil
	}

	snap := st.Snapshot()
	if tx.Value > 0 {
		if !st.SubBalance(tx.From, tx.Value) {
			receipt.Status = types.StatusFailed
			receipt.GasUsed = intrinsic
			return nil
		}
		st.AddBalance(tx.To, tx.Value)
	}
	// The contract no-op check below must anchor at the journal position
	// AFTER the value transfer: anchoring at snap would let the
	// transfer's own journal entries read as contract activity and
	// misclassify a contract-rejected no-op as succeeded whenever
	// tx.Value > 0. Plain transfers (no code at the target) are exempt —
	// moving value IS their state effect.
	hasCode := len(st.GetCode(tx.To)) > 0
	postTransfer := st.Snapshot()

	// Feed the admission-derived mark digest to the interpreter so the
	// contract's own SHA3 over the same prevMark‖value bytes is elided.
	// Set unconditionally (the zero hint clears): every lane — the
	// sequential processor, the parallel workers and the serial re-run —
	// applies transactions through this function, so all three elide
	// identically, and a machine recycled across transactions can never
	// carry a previous hint into a hint-less one.
	var hint evm.TxHint
	if input, mark, ok := tx.MarkHint(); ok {
		hint.MarkInput, hint.Mark = input, mark
		hint.PrevInput, hint.PrevDigest, _ = tx.PrevHint()
	}
	machine.SetTxHint(hint)

	// Transactions execute WITHOUT RAA: calldata is signature-protected
	// (paper §III-D), so the interpreter sees it verbatim.
	res := machine.Call(evm.CallContext{
		Caller:   tx.From,
		Contract: tx.To,
		Input:    tx.Data,
		Value:    tx.Value,
		GasPrice: tx.GasPrice,
		Gas:      tx.GasLimit - intrinsic,
	})
	receipt.GasUsed = intrinsic + res.GasUsed
	receipt.ReturnValue = res.ReturnWord()

	switch {
	case res.Err != nil:
		// EVM fault or revert: roll back in place.
		st.RevertToSnapshot(snap)
		receipt.Status = types.StatusFailed
	case hasCode && !st.MutatedSince(postTransfer):
		// No journaled state effect beyond the nonce bump: the contract
		// rejected the operation (stale mark/price) — the paper's
		// "failed" transaction, included but rolled back. The rollback
		// also returns any value the rejected call carried.
		st.RevertToSnapshot(snap)
		receipt.Status = types.StatusFailed
	default:
		receipt.Status = types.StatusSucceeded
	}
	return nil
}
