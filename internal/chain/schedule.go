// Speculation scheduler for the parallel processor. Workers claim
// transaction indices in order from an atomic counter, execute each one
// against a pooled read-recording SpecView of the (already flushed)
// parent state, and signal completion per transaction; the commit loop
// in parallel.go consumes results strictly in index order. Views are
// recycled through a sync.Pool once the commit loop releases them, so a
// steady-state replay allocates no fresh overlays.
package chain

import (
	"sync"
	"sync/atomic"

	"sereth/internal/evm"
	"sereth/internal/statedb"
	"sereth/internal/types"
)

// specViewPool recycles speculation overlays across transactions and
// blocks. Reset re-binds a pooled view to the current parent state and
// clears every retained reference.
var specViewPool = sync.Pool{
	New: func() any { return new(statedb.SpecView) },
}

// txTask carries one transaction's speculative outcome from a worker to
// the commit loop. done is closed exactly once, after view/receipt/err
// are final; the commit loop owns the task afterwards.
type txTask struct {
	view    *statedb.SpecView
	receipt types.Receipt
	err     error
	done    chan struct{}
}

// speculation is one block body's worth of in-flight optimistic
// execution.
type speculation struct {
	tasks []txTask
	next  atomic.Int64
	abort atomic.Bool
	wg    sync.WaitGroup
}

// startSpeculation launches workers speculating over txs against
// parentState. parentState must already be flushed (the caller copies it
// first), so concurrent reads through the SpecViews are safe.
func startSpeculation(seq *Processor, parentState *statedb.StateDB, header *types.Header, txs []*types.Transaction, workers int) *speculation {
	s := &speculation{tasks: make([]txTask, len(txs))}
	for i := range s.tasks {
		s.tasks[i].done = make(chan struct{})
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go s.run(seq, parentState, header, txs)
	}
	return s
}

// run is one worker: claim the next unexecuted index, speculate it on a
// pooled view, publish the result. The per-worker EVM is rebound to
// each transaction's view, so interpreter frames and machine scratch
// are reused across the worker's whole share of the body.
func (s *speculation) run(seq *Processor, parentState *statedb.StateDB, header *types.Header, txs []*types.Transaction) {
	defer s.wg.Done()
	machine := evm.New(nil, evm.BlockContext{Number: header.Number, Time: header.Time})
	for {
		i := int(s.next.Add(1)) - 1
		if i >= len(txs) || s.abort.Load() {
			return
		}
		t := &s.tasks[i]
		view := specViewPool.Get().(*statedb.SpecView)
		view.Reset(parentState)
		machine.Reset(view)
		t.view = view
		t.err = seq.applyTransaction(machine, view, txs[i], &t.receipt)
		close(t.done)
	}
}

// wait blocks until transaction i's speculation is published and
// returns its task. The commit loop owns the task (and its view) until
// release.
func (s *speculation) wait(i int) *txTask {
	t := &s.tasks[i]
	<-t.done
	return t
}

// release returns transaction i's view to the pool once the commit loop
// has merged or discarded it.
func (s *speculation) release(i int) {
	t := &s.tasks[i]
	if t.view != nil {
		specViewPool.Put(t.view)
		t.view = nil
	}
}

// stop halts further claims and waits for in-flight speculations, so no
// worker outlives Process (workers read the caller's parent state,
// which must not be flushed under them).
func (s *speculation) stop() {
	s.abort.Store(true)
	s.wg.Wait()
}
