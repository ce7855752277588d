package chain

import (
	"errors"
	"math/rand"
	"os"
	"testing"
	"time"

	"sereth/internal/asm"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// sweepRig is a chain that owns a FileStore and has no ExecCache — the
// chain that sweeps — fed blocks it builds itself: puts or puts+1 puts
// each, to random slots of a universe of slots.
type sweepRig struct {
	t           testing.TB
	dir         string
	fs          *lastWrite
	cfg         Config
	c           *Chain
	writer      *wallet.Key
	rng         *rand.Rand
	slots, puts int
}

func newSweepRig(t testing.TB, slots, puts int) *sweepRig {
	reg := wallet.NewRegistry()
	writer := wallet.NewKey("sweep-writer")
	reg.Register(writer)
	r := &sweepRig{t: t, dir: t.TempDir(), writer: writer, rng: rand.New(rand.NewSource(1)), slots: slots, puts: puts}
	r.cfg = DefaultConfig()
	r.cfg.Registry = reg
	r.cfg.GasLimit = max(r.cfg.GasLimit, uint64(puts+1)*100_000)
	r.reopen()
	return r
}

// lastWrite is a FileStore that remembers how many log bytes its last
// Write appended.
type lastWrite struct {
	*store.FileStore
	n int64
}

func (s *lastWrite) Write(b *store.Batch) error {
	s.n = int64(b.LogBytes())
	return s.FileStore.Write(b)
}

// reopen opens the datadir's store: the first time, under a new chain;
// then as the chain the store holds, which must start at genesis and
// verify at the head it had.
func (r *sweepRig) reopen() {
	r.t.Helper()
	var head types.Hash
	if r.fs != nil {
		head = r.c.Head().Hash()
		if err := r.fs.Close(); err != nil {
			r.t.Fatal(err)
		}
	}
	fs, err := store.OpenFile(r.dir)
	if err != nil {
		r.t.Fatal(err)
	}
	r.fs = &lastWrite{FileStore: fs}
	r.cfg.Store = r.fs
	r.t.Cleanup(func() { _ = fs.Close() })
	if r.c == nil {
		r.c = New(r.cfg, modelGenesis())
		return
	}
	if r.c, err = Open(r.cfg, r.fs); err != nil {
		r.t.Fatalf("reopen: %v", err)
	}
	if r.c.Base() != 0 || r.c.Head().Hash() != head {
		r.t.Fatalf("reopened at base %d, head %d (%s), want base 0 and the head it had", r.c.Base(), r.c.Height(), r.c.Head().Hash().Hex())
	}
	if err := statedb.VerifyState(fs, r.c.Head().Header.StateRoot); err != nil {
		r.t.Fatalf("reopened head state: %v", err)
	}
}

// logSize is the length of the log past its magic.
func (r *sweepRig) logSize() int64 {
	fi, err := os.Stat(r.fs.Path())
	if err != nil {
		r.t.Fatal(err)
	}
	return fi.Size() - int64(len("SKV3\n"))
}

// build builds and executes a child of parent, whose post state is st.
func (r *sweepRig) build(parent *types.Block, st *statedb.StateDB) (*types.Block, *ExecResult) {
	r.t.Helper()
	nonce := st.GetNonce(r.writer.Address())
	txs := make([]*types.Transaction, r.puts+r.rng.Intn(2))
	for i := range txs {
		slot := types.WordFromUint64(uint64(r.rng.Intn(r.slots)))
		txs[i] = r.writer.SignTx(&types.Transaction{
			Nonce: nonce + uint64(i), To: modelKV, GasPrice: 10, GasLimit: 100_000,
			Data: types.EncodeCall(asm.SelPut, slot, types.WordFromUint64(r.rng.Uint64()|1)),
		})
	}
	header := &types.Header{
		ParentHash: parent.Hash(), Number: parent.Number() + 1, GasLimit: r.cfg.GasLimit,
		Time: parent.Header.Time + 1 + uint64(r.rng.Intn(30)),
	}
	res, err := r.c.Process(st, header, txs)
	if err != nil {
		r.t.Fatal(err)
	}
	block := &types.Block{Header: header, Txs: txs}
	header.TxRoot = block.TxRoot()
	header.ReceiptRoot, header.StateRoot, header.GasUsed = res.ReceiptRoot, res.StateRoot, res.GasUsed
	return block, res
}

// grow has the chain build and adopt a block on its head, and returns
// how long the adoption took.
func (r *sweepRig) grow() time.Duration {
	r.t.Helper()
	var block *types.Block
	var res *ExecResult
	r.c.ReadHeadState(func(head *types.Block, st *statedb.StateDB) { block, res = r.build(head, st) })
	start := time.Now()
	if _, err := r.c.InsertBuilt(block, res); err != nil {
		r.t.Fatalf("block %d: %v", block.Number(), err)
	}
	return time.Since(start)
}

// branch builds n blocks on the canonical block number p, from its
// state as the store holds it.
func (r *sweepRig) branch(p uint64, n int) []*types.Block {
	parent := r.c.BlockByNumber(p)
	st := statedb.OpenAt(r.fs, parent.Header.StateRoot)
	out := make([]*types.Block, n)
	for i := range out {
		block, res := r.build(parent, st)
		out[i], parent, st = block, block, res.Post
	}
	return out
}

// forkAtTheHorizon adopts a block and checks the reorg horizon of the
// chain: a branch on the block memoryWindow+1 below the head is refused
// with ErrForkTooDeep, and one on the block memoryWindow below it is
// adopted. One block after a sweep, the store still holds the state the
// deeper branch starts from, so only the horizon refuses it; its blocks
// are parent-linked headers the chain must refuse before it reads one.
func (r *sweepRig) forkAtTheHorizon() {
	r.t.Helper()
	r.grow()
	head := r.c.Height()
	if !hasStateRoot(r.fs, r.c.BlockByNumber(head-memoryWindow-1).Header.StateRoot) {
		r.t.Fatalf("head %d: the state a horizon and a block below is gone a block after the sweep", head)
	}
	tooDeep := make([]*types.Block, memoryWindow+2)
	parent := r.c.BlockByNumber(head - memoryWindow - 1)
	for i := range tooDeep {
		tooDeep[i] = &types.Block{Header: &types.Header{ParentHash: parent.Hash(), Number: parent.Number() + 1, GasLimit: r.cfg.GasLimit}}
		parent = tooDeep[i]
	}
	_, err := r.c.ImportFork(tooDeep)
	if !errors.Is(err, ErrForkTooDeep) || r.c.Height() != head {
		r.t.Fatalf("a fork %d deep: %v, want ErrForkTooDeep", memoryWindow+1, err)
	}
	orphaned, err := r.c.ImportFork(r.branch(head-memoryWindow, memoryWindow+1))
	if err != nil || orphaned != memoryWindow {
		r.t.Fatalf("a fork %d deep: %d orphaned, %v", memoryWindow, orphaned, err)
	}
}

// checkSwept checks the store right after a sweep: it holds the state
// of every block within the horizon whole, every canonical body, and
// nothing else but the head pointer — no trie node or code blob that
// only older states or orphaned branches reference. A chain opened from
// it starts at genesis and verifies at the head. It returns how many
// records the mark set held.
func (r *sweepRig) checkSwept() int {
	r.t.Helper()
	head := r.c.Height()
	marked := map[types.Hash]struct{}{}
	codes := map[string]struct{}{}
	for d := uint64(0); d <= memoryWindow && d <= head; d++ {
		root := r.c.BlockByNumber(head - d).Header.StateRoot
		err := statedb.OpenAt(r.fs, root).Walk(marked, func(key, _ []byte) {
			if statedb.IsCodeKey(key) {
				codes[string(key)] = struct{}{}
			}
		})
		if err != nil {
			r.t.Fatalf("head %d: the state of block %d is not whole: %v", head, head-d, err)
		}
	}
	for n := uint64(0); n <= head; n++ {
		enc, ok := r.fs.Get(blockKey(n))
		if !ok {
			r.t.Fatalf("head %d: body %d is gone", head, n)
		}
		if b, err := types.DecodeBlock(enc); err != nil || b.Hash() != r.c.BlockByNumber(n).Hash() {
			r.t.Fatalf("head %d: body %d is not the canonical one (%v)", head, n, err)
		}
	}
	if held, want := r.fs.Len(), len(marked)+len(codes)+int(head)+2; held != want {
		r.t.Fatalf("head %d: the store holds %d records, the horizon's states, the bodies and the head pointer %d", head, held, want)
	}
	ro := r.cfg
	ro.Store = nil // an import: the head state verified in full, nothing written
	re, err := Open(ro, r.fs)
	if err != nil || re.Base() != 0 || re.Head().Hash() != r.c.Head().Hash() {
		r.t.Fatalf("head %d: a chain opened from the swept store: %v", head, err)
	}
	return len(marked)
}

// TestSweepBoundsTheStore runs a chain that owns its store through ten
// sweeps and more than ten horizons of small blocks, with a reorg at the
// horizon after its second sweep. The chain sweeps by itself; each sweep
// leaves exactly what checkSwept allows, in a log at most twice the one
// the sweep before kept (what grows is the bodies). It sweeps only once
// it has written as much as the last sweep kept — a byte written pays for
// at most one copied — and once a horizon has passed since a sweep, the
// log never holds more than twice what it kept before the block that
// sets the next one off. After a reopen the horizon holds: a fork
// memoryWindow deep imports, one a block deeper is refused.
func TestSweepBoundsTheStore(t *testing.T) {
	if testing.Short() {
		t.Skip("10 sweeps take 9,000 blocks")
	}
	// 1,024 slots make a storage trie three levels deep, so a block of a
	// put or two supersedes a handful of nodes and the log is mostly
	// superseded nodes by the first sweep.
	r := newSweepRig(t, 1024, 1)
	var (
		sweeps, peak             int
		sweptAt                  uint64
		kept, before, largest    int64
		slowest, total, sweeping time.Duration
	)
	for sweeps < 10 || r.c.Height() < 10*memoryWindow {
		if r.c.Height() > 40*memoryWindow {
			t.Fatalf("%d sweeps in %d blocks", sweeps, r.c.Height())
		}
		if r.c.Height() > sweptAt+memoryWindow && before > 2*kept {
			t.Fatalf("block %d: a log of %d bytes a horizon past the sweep that kept %d", r.c.Height(), before, kept)
		}
		took := r.grow()
		total += took
		size := r.logSize()
		if size >= before {
			largest, before = max(largest, size), size
			continue
		}
		sweeps++
		slowest, sweeping = max(slowest, took), sweeping+took
		peak = max(peak, r.checkSwept())
		if swept := before + r.fs.n; sweeps > 1 && (swept < 2*kept || size > 2*kept) {
			t.Fatalf("sweep %d of a %d-byte log kept %d bytes, the one before %d", sweeps, swept, size, kept)
		}
		t.Logf("sweep %d at block %d: %d -> %d bytes in %v", sweeps, r.c.Height(), before, size, took)
		sweptAt, kept, before = r.c.Height(), size, size
		if sweeps == 2 {
			r.forkAtTheHorizon()
			before = r.logSize()
		}
	}
	r.reopen()
	r.forkAtTheHorizon()
	blocks := time.Duration(r.c.Height())
	t.Logf("%d blocks, %d sweeps: the slowest adoption with a sweep %v, a mark set of up to %d nodes, sweeps %v a block amortized (adoptions %v in all), largest log %d bytes",
		r.c.Height(), sweeps, slowest, peak, sweeping/blocks, total/blocks, largest)
}

// TestSweepBesideImports: blocks import while a sweep marks, and the
// sweep keeps what they wrote: after it, the state of every block within
// the horizon is whole in the store.
func TestSweepBesideImports(t *testing.T) {
	r := newSweepRig(t, 1024, 1)
	for r.c.Height() < memoryWindow/2 {
		r.grow()
	}
	for range 3 {
		done := make(chan error)
		go func() {
			_, err := r.c.Sweep()
			done <- err
		}()
		beside := 0
		for sweeping := true; sweeping; {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				sweeping = false
			default:
				r.grow()
				beside++
			}
		}
		head := r.c.Height()
		marked := map[types.Hash]struct{}{}
		for d := uint64(0); d <= memoryWindow && d <= head; d++ {
			if err := statedb.OpenAt(r.fs, r.c.BlockByNumber(head-d).Header.StateRoot).Walk(marked, func(_, _ []byte) {}); err != nil {
				t.Fatalf("head %d, %d blocks imported beside the sweep: the state of block %d is not whole: %v", head, beside, head-d, err)
			}
		}
	}
}

// compactFails is a store whose rewrites fail while fail is set, as
// they do on a full disk.
type compactFails struct {
	store.Store
	fail  bool
	tries int
}

func (s *compactFails) Compact(keep func(key []byte) bool) (store.CompactStats, error) {
	s.tries++
	if s.fail {
		return store.CompactStats{}, errors.New("no space left on device")
	}
	return s.Store.Compact(keep)
}

// TestFailedSweepKeepsTheBlock: a sweep that fails does not fail the
// adoption that set it off. The block is adopted and the failure is
// SweepErr's; the next sweep waits a horizon past the failed one, not a
// block, and one that succeeds clears SweepErr and leaves exactly what a
// sweep leaves.
func TestFailedSweepKeepsTheBlock(t *testing.T) {
	r := newSweepRig(t, 1024, 1)
	fails := &compactFails{Store: r.fs, fail: true}
	r.cfg.Store = fails
	r.c = New(r.cfg, modelGenesis())
	for r.c.Height() < 3*memoryWindow {
		if r.c.Height() == 2*memoryWindow {
			if r.c.SweepErr() == nil {
				t.Fatal("no SweepErr after a failed sweep")
			}
			fails.fail = false
		}
		r.grow()
		if want := int(r.c.Height() / memoryWindow); fails.tries != want {
			t.Fatalf("block %d: %d sweeps tried, want %d", r.c.Height(), fails.tries, want)
		}
	}
	if err := r.c.SweepErr(); err != nil {
		t.Fatalf("SweepErr after a sweep that succeeded: %v", err)
	}
	r.checkSwept()
}

// BenchmarkSweep measures a sweep of a chain the size of the bench's
// kv-blocks peers: 250 puts a block to 50,000 slots. It grows the chain
// a horizon of blocks, which sets off its first sweep, and then times
// sweeps of the horizon's 513 states, while a reader asks the chain for
// its head every millisecond: read-wait-s is the longest the reader
// waited, the time the sweep holds the chain's lock. block-ms is what
// building and adopting a block took besides.
func BenchmarkSweep(b *testing.B) {
	r := newSweepRig(b, 50_000, 250)
	var first time.Duration
	start := time.Now()
	for r.c.Height() < memoryWindow {
		first = max(first, r.grow())
	}
	perBlock := (time.Since(start) - first).Seconds() * 1e3 / float64(r.c.Height())
	stop, waited := make(chan struct{}), make(chan time.Duration)
	go func() {
		var longest time.Duration
		for {
			select {
			case <-stop:
				waited <- longest
				return
			case <-time.After(time.Millisecond):
			}
			start := time.Now()
			r.c.Head()
			longest = max(longest, time.Since(start))
		}
	}()
	var stats store.CompactStats
	for b.Loop() {
		var err error
		if stats, err = r.c.Sweep(); err != nil {
			b.Fatal(err)
		}
	}
	close(stop)
	b.ReportMetric((<-waited).Seconds(), "read-wait-s")
	b.ReportMetric(perBlock, "block-ms")
	b.ReportMetric(first.Seconds(), "first-sweep-s")
	b.ReportMetric(float64(stats.Records), "kept-records")
	b.ReportMetric(float64(stats.BytesAfter)/1e6, "kept-MB")
}
