package scenarios

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"sereth/internal/chain"
	"sereth/internal/evm"
	"sereth/internal/statedb"
)

// journalEntryBytes is the size of one statedb journal entry (an
// unexported struct: a kind, an address, two account pointers, a word
// pair, a uint64, a code slice and a hash pointer).
const journalEntryBytes = 144

// bytesPerCall is what one call of step allocates, averaged over runs
// calls after before() each.
func bytesPerCall(runs int, before, step func()) uint64 {
	var m0, m1 runtime.MemStats
	var total uint64
	for i := 0; i < runs; i++ {
		before()
		runtime.ReadMemStats(&m0)
		step()
		runtime.ReadMemStats(&m1)
		total += m1.TotalAlloc - m0.TotalAlloc
	}
	return total / uint64(runs)
}

// TestProcessScratchReused: in steady state a block's execution takes
// its journal array and its machine from their pools instead of
// allocating them. Process of the 100-transaction replay block is
// measured warm, the collector held off so the pools keep what the
// previous call returned, and again with two collections before every
// call, which empty every pool: the warm call must allocate less by at
// least the journal's reservation and the machine.
func TestProcessScratchReused(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	f := NewReplayFixture(100)
	proc := chain.NewProcessor(chain.Config{GasLimit: f.Block.Header.GasLimit, Registry: f.Registry})
	process := func() {
		if _, err := proc.Process(f.Genesis, f.Block.Header, f.Block.Txs); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ {
		process() // fill the pools
	}
	warm := bytesPerCall(20, func() {}, process)
	cold := bytesPerCall(20, func() { runtime.GC(); runtime.GC() }, process)
	scratch := uint64(statedb.BodyJournalCapacity(len(f.Block.Txs)))*journalEntryBytes + uint64(unsafe.Sizeof(evm.EVM{}))
	t.Logf("Process of 100 txs: %d B warm, %d B on emptied pools; journal + machine = %d B", warm, cold, scratch)
	if warm+scratch > cold {
		t.Errorf("a warm Process allocates %d B, only %d B less than one on emptied pools: the journal and the machine (%d B) are not reused",
			warm, cold-warm, scratch)
	}
}

// TestViewAMVAllocs pins the in-process view read — the tracker's cached
// view, then mark() and get() through the EVM and RAA on the head state —
// at nothing: the calldata the two calls share is built in an input the
// pooled machine lends, and RAA augments it into the machine's own
// buffer. (1 and 112 B while the calldata was a heap slice; 3 and 336 B
// while RAA made a fresh augmented copy for each call; 5 and 400 B while each
// call's 32 bytes of return data were a fresh slice; 14 and 3 216 B while
// each call built its own machine and calldata, RAA decoded the arguments
// into a slice of words and got a slice back, and the program counter was
// a heap local).
func TestViewAMVAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	view := ViewAMVOnServingNode(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	view() // take the machine and the frame from their pools once
	allocs := testing.AllocsPerRun(200, view)
	bytes := bytesPerCall(200, func() {}, view)
	t.Logf("node/view-amv: %v allocs, %d B per read", allocs, bytes)
	if allocs != 0 || bytes != 0 {
		t.Errorf("node/view-amv: %v allocs and %d B per read, pinned 0 and 0", allocs, bytes)
	}
}
