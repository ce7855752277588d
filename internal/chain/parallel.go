// ParallelProcessor: optimistic intra-block parallel execution
// (Block-STM style) over the flat-journal evidence the sequential
// pipeline already produces. The body's transactions are executed
// speculatively on a worker pool, each against a read-recording
// SpecView of the parent state (internal/statedb); commits then proceed
// strictly in transaction order — a speculation whose recorded read set
// still matches the state committed by all lower-indexed transactions
// is merged without replay, anything else is re-executed serially
// through the SAME applyTransaction code that defines the sequential
// semantics. Receipts, gas accounting, the journal-based no-op
// classification, and the state/receipt roots are therefore
// bit-identical to Processor.Process, which remains the differential
// oracle (parallel_test.go pins every scenario and a conflict-dense
// fuzz corpus to it).
package chain

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"sereth/internal/evm"
	"sereth/internal/statedb"
	"sereth/internal/types"
)

// DefaultParallelThreshold is the smallest body length routed to the
// parallel path when Config.ParallelThreshold is unset: below it the
// per-transaction speculation overhead (view overlay, read validation)
// outweighs the EVM work it overlaps.
const DefaultParallelThreshold = 32

// ParallelStats counts scheduler outcomes over a processor's lifetime
// (monotonic; read with Stats).
type ParallelStats struct {
	// Speculated counts transactions executed on the worker pool.
	Speculated uint64
	// Merged counts speculations whose read set validated and whose
	// overlay was committed without replay.
	Merged uint64
	// Reruns counts conflicting (or erroring) speculations re-executed
	// serially at commit time.
	Reruns uint64
	// Fallbacks counts whole bodies routed to the sequential processor
	// (below-threshold bodies or a single-worker configuration).
	Fallbacks uint64
	// ReadOnlySkips counts merged speculations whose overlay held no
	// writes at all, so MergeInto was skipped outright.
	ReadOnlySkips uint64
	// NonceOnlyMerges counts merged speculations whose only write was
	// the sender nonce bump (read-only contract calls routed through
	// transactions), committed via the single-field fast path.
	NonceOnlyMerges uint64
}

// ParallelProcessor executes block bodies optimistically on a worker
// pool, falling back to the sequential oracle for small bodies. Like
// Processor it is stateless between calls and safe for concurrent use
// by multiple importers.
type ParallelProcessor struct {
	seq       *Processor
	workers   int
	threshold int

	speculated      atomic.Uint64
	merged          atomic.Uint64
	reruns          atomic.Uint64
	fallbacks       atomic.Uint64
	readOnlySkips   atomic.Uint64
	nonceOnlyMerges atomic.Uint64
}

// NewParallelProcessor returns a parallel processor for the given chain
// configuration. ParallelWorkers <= 0 selects GOMAXPROCS;
// ParallelThreshold <= 0 selects DefaultParallelThreshold.
func NewParallelProcessor(cfg Config) *ParallelProcessor {
	workers := cfg.ParallelWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	threshold := cfg.ParallelThreshold
	if threshold <= 0 {
		threshold = DefaultParallelThreshold
	}
	return &ParallelProcessor{
		seq:       NewProcessor(cfg),
		workers:   workers,
		threshold: threshold,
	}
}

// Stats returns a snapshot of the scheduler counters.
func (p *ParallelProcessor) Stats() ParallelStats {
	return ParallelStats{
		Speculated:      p.speculated.Load(),
		Merged:          p.merged.Load(),
		Reruns:          p.reruns.Load(),
		Fallbacks:       p.fallbacks.Load(),
		ReadOnlySkips:   p.readOnlySkips.Load(),
		NonceOnlyMerges: p.nonceOnlyMerges.Load(),
	}
}

// Process replays txs on a copy of parentState exactly like
// Processor.Process — same receipts, gas, roots, and errors — executing
// the body on the speculation pool when it is large enough to profit.
func (p *ParallelProcessor) Process(parentState *statedb.StateDB, header *types.Header, txs []*types.Transaction) (*ExecResult, error) {
	if len(txs) < p.threshold || p.workers < 2 {
		p.fallbacks.Add(1)
		return p.seq.Process(parentState, header, txs)
	}
	return p.processParallel(parentState, header, txs)
}

// processParallel is the optimistic schedule: speculate on the worker
// pool, then commit in transaction order.
func (p *ParallelProcessor) processParallel(parentState *statedb.StateDB, header *types.Header, txs []*types.Transaction) (*ExecResult, error) {
	// Copy (and thereby flush) the parent BEFORE the workers start:
	// afterwards every base access is a pure map/trie read, safe to share
	// across the pool, while commits mutate only this private copy.
	st := parentState.Copy()
	sched := startSpeculation(p.seq, parentState, header, txs, min(p.workers, len(txs)))
	// The error paths below must not leak running workers: a speculating
	// worker still reads the parent state, which the caller is free to
	// copy (and flush) once Process returns.
	defer sched.stop()

	receipts := make([]types.Receipt, len(txs))
	// The serial lane: conflicting speculations re-execute against the
	// committed state through the oracle's own applyTransaction.
	var serial *evm.EVM
	var gasUsed uint64
	var merged, reruns, readOnly, nonceOnly uint64
	for i, tx := range txs {
		t := sched.wait(i)
		if gasUsed+tx.GasLimit > p.seq.gasLimit {
			return nil, ErrGasLimitReached
		}
		if t.err == nil && t.view.Validate(st) {
			// Clean speculation: the read set still holds against
			// everything committed below this index, so the overlay IS
			// the serial outcome — merge it without replay. Views whose
			// write footprint is empty (pure readers) or a lone sender
			// nonce bump (read-only contract calls carried by a tx) take
			// the cheaper commit paths: the serving tier's read traffic
			// must not pay a full overlay walk per transaction.
			receipts[i] = t.receipt
			if t.view.IsReadOnly() {
				readOnly++
			} else if addr, nonce, ok := t.view.NonceOnlyWrite(); ok {
				st.MergeNonce(addr, nonce)
				nonceOnly++
			} else {
				t.view.MergeInto(st)
			}
			merged++
		} else {
			// Conflict (or a speculative signature/nonce error that must
			// be re-judged against live state): run the transaction
			// serially, journaled, on the committed state.
			if serial == nil {
				serial = evm.New(st, evm.BlockContext{Number: header.Number, Time: header.Time})
			}
			st.ReserveJournal(statedb.JournalEntriesPerTx)
			if err := p.seq.applyTransaction(serial, st, tx, &receipts[i]); err != nil {
				return nil, fmt.Errorf("tx %d: %w", i, err)
			}
			reruns++
		}
		sched.release(i)
		gasUsed += receipts[i].GasUsed
	}
	st.DiscardJournal()
	p.speculated.Add(uint64(len(txs)))
	p.merged.Add(merged)
	p.reruns.Add(reruns)
	p.readOnlySkips.Add(readOnly)
	p.nonceOnlyMerges.Add(nonceOnly)
	return &ExecResult{
		Receipts:    receipts,
		Post:        st,
		GasUsed:     gasUsed,
		StateRoot:   st.Root(),
		ReceiptRoot: types.DeriveReceiptRoot(header.Number, txs, receipts),
	}, nil
}
