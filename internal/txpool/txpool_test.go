package txpool

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sereth/internal/types"
)

func addr(b byte) types.Address {
	var a types.Address
	a[19] = b
	return a
}

func tx(sender byte, nonce uint64, price uint64) *types.Transaction {
	return &types.Transaction{
		Nonce:    nonce,
		From:     addr(sender),
		To:       addr(0xcc),
		GasPrice: price,
		GasLimit: 100000,
		Data:     []byte{sender, byte(nonce), byte(price)},
	}
}

func TestAddAndGet(t *testing.T) {
	p := New()
	t1 := tx(1, 0, 10)
	if err := p.Add(t1); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 || !p.Has(t1.Hash()) {
		t.Error("tx not admitted")
	}
	got := p.Get(t1.Hash())
	if got == nil || got.Hash() != t1.Hash() {
		t.Error("Get mismatch")
	}
	if p.Get(types.Hash{1}) != nil {
		t.Error("Get returned phantom")
	}
}

func TestDuplicateRejected(t *testing.T) {
	p := New()
	t1 := tx(1, 0, 10)
	if err := p.Add(t1); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(t1); !errors.Is(err, ErrAlreadyKnown) {
		t.Errorf("duplicate: %v", err)
	}
}

func TestNonceReplacement(t *testing.T) {
	p := New()
	low := tx(1, 0, 10)
	if err := p.Add(low); err != nil {
		t.Fatal(err)
	}
	// Same nonce, equal price, different payload: rejected as underpriced.
	equal := tx(1, 0, 10)
	equal.Data = append(equal.Data, 0xff)
	if err := p.Add(equal); !errors.Is(err, ErrUnderpriced) {
		t.Errorf("equal price replacement: %v", err)
	}
	// Higher price: replaces.
	high := tx(1, 0, 20)
	if err := p.Add(high); err != nil {
		t.Fatal(err)
	}
	if p.Has(low.Hash()) {
		t.Error("replaced tx still present")
	}
	if !p.Has(high.Hash()) || p.Len() != 1 {
		t.Error("replacement not admitted")
	}
}

func TestPendingPreservesArrivalOrder(t *testing.T) {
	p := New()
	var want []types.Hash
	for i := 0; i < 10; i++ {
		tr := tx(byte(i%3+1), uint64(i/3), uint64(100-i))
		if err := p.Add(tr); err != nil {
			t.Fatal(err)
		}
		want = append(want, tr.Hash())
	}
	got := p.Pending()
	if len(got) != len(want) {
		t.Fatalf("pending len %d", len(got))
	}
	for i := range got {
		if got[i].Hash() != want[i] {
			t.Fatalf("arrival order broken at %d", i)
		}
	}
}

func TestBySenderNonceSorted(t *testing.T) {
	p := New()
	// Insert out of nonce order.
	for _, nonce := range []uint64{2, 0, 1} {
		if err := p.Add(tx(1, nonce, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Add(tx(2, 0, 10)); err != nil {
		t.Fatal(err)
	}
	grouped := p.BySender()
	if len(grouped) != 2 {
		t.Fatalf("senders = %d", len(grouped))
	}
	ones := grouped[addr(1)]
	if len(ones) != 3 {
		t.Fatalf("sender 1 txs = %d", len(ones))
	}
	for i, tr := range ones {
		if tr.Nonce != uint64(i) {
			t.Errorf("nonce order: pos %d has nonce %d", i, tr.Nonce)
		}
	}
}

func TestRemoveAndStale(t *testing.T) {
	p := New()
	t0, t1, t2 := tx(1, 0, 10), tx(1, 1, 10), tx(1, 2, 10)
	for _, tr := range []*types.Transaction{t0, t1, t2} {
		if err := p.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	p.Remove([]types.Hash{t1.Hash()})
	if p.Has(t1.Hash()) || p.Len() != 2 {
		t.Error("Remove failed")
	}
	// Account nonce advanced to 2: t0 is stale, t2 still valid.
	p.Settle(nil, func(a types.Address) uint64 { return 2 })
	if p.Has(t0.Hash()) || !p.Has(t2.Hash()) {
		t.Error("Settle left a stale transaction or dropped a valid one")
	}
}

func TestValidatorRejection(t *testing.T) {
	sentinel := errors.New("bad signature")
	p := New(WithValidator(func(tr *types.Transaction) error {
		if tr.GasPrice == 0 {
			return sentinel
		}
		return nil
	}))
	if err := p.Add(tx(1, 0, 0)); !errors.Is(err, ErrRejected) {
		t.Errorf("validator bypass: %v", err)
	}
	if err := p.Add(tx(1, 0, 5)); err != nil {
		t.Fatal(err)
	}
}

func TestCapacity(t *testing.T) {
	p := New(WithCapacity(2))
	if err := p.Add(tx(1, 0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx(1, 1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(tx(1, 2, 10)); !errors.Is(err, ErrPoolFull) {
		t.Errorf("over capacity: %v", err)
	}
}

func TestIsolationFromCallerMutation(t *testing.T) {
	p := New()
	t1 := tx(1, 0, 10)
	if err := p.Add(t1); err != nil {
		t.Fatal(err)
	}
	t1.Data[0] = 0xff // caller mutates after Add
	got := p.Get(t1.Hash())
	if got != nil && got.Data[0] == 0xff {
		t.Error("pool shares caller's slice")
	}
	// Pending copies too.
	pend := p.Pending()
	pend[0].Data[0] = 0xee
	if p.Pending()[0].Data[0] == 0xee {
		t.Error("Pending leaks internal state")
	}
}

func TestClear(t *testing.T) {
	p := New()
	for i := 0; i < 5; i++ {
		if err := p.Add(tx(1, uint64(i), 10)); err != nil {
			t.Fatal(err)
		}
	}
	p.Clear()
	if p.Len() != 0 || len(p.Pending()) != 0 {
		t.Error("Clear incomplete")
	}
}

func TestConcurrentAdds(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for s := byte(1); s <= 8; s++ {
		wg.Add(1)
		go func(sender byte) {
			defer wg.Done()
			for n := uint64(0); n < 50; n++ {
				_ = p.Add(tx(sender, n, 10))
			}
		}(s)
	}
	wg.Wait()
	if p.Len() != 8*50 {
		t.Errorf("len = %d want %d", p.Len(), 8*50)
	}
	// Per-sender views must be complete and nonce-ordered.
	for sender, txs := range p.BySender() {
		if len(txs) != 50 {
			t.Errorf("sender %s has %d", sender.Hex(), len(txs))
		}
		for i := 1; i < len(txs); i++ {
			if txs[i].Nonce <= txs[i-1].Nonce {
				t.Error("nonce order violated")
			}
		}
	}
}

func TestArrivalCompaction(t *testing.T) {
	p := New()
	var hashes []types.Hash
	for i := 0; i < 600; i++ {
		tr := tx(1, uint64(i), 10)
		if err := p.Add(tr); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, tr.Hash())
	}
	p.Remove(hashes[:590])
	if p.Len() != 10 {
		t.Fatalf("len = %d", p.Len())
	}
	pend := p.Pending()
	if len(pend) != 10 {
		t.Fatalf("pending = %d", len(pend))
	}
	for i, tr := range pend {
		if tr.Hash() != hashes[590+i] {
			t.Error("compaction broke arrival order")
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	p := New(WithCapacity(1 << 30))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Add(tx(byte(i%200), uint64(i), 10))
	}
}

func BenchmarkPending1k(b *testing.B) {
	p := New()
	for i := 0; i < 1000; i++ {
		if err := p.Add(tx(byte(i%100+1), uint64(i/100), uint64(10+i%5))); err != nil {
			b.Fatal(fmt.Errorf("seed %d: %w", i, err))
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := p.Pending(); len(got) != 1000 {
			b.Fatal("wrong pending size")
		}
	}
}

// noSeed is the Watch seed of a watcher that starts from an empty pool.
func noSeed([]*types.Transaction, uint64) {}

func TestWatchDeliversOrderedChanges(t *testing.T) {
	p := New()
	var log []Change
	seeded := false
	p.Watch(func(pending []*types.Transaction, gen uint64) {
		seeded = true
		if len(pending) != 0 || gen != 0 {
			t.Fatalf("fresh pool seed: %d txs gen %d", len(pending), gen)
		}
	}, func(c Change) { log = append(log, c) })
	if !seeded {
		t.Fatal("Watch returned without seeding")
	}
	low := tx(1, 0, 10)
	high := tx(1, 0, 20) // replaces low: one removal + one add
	other := tx(2, 0, 10)
	for _, tr := range []*types.Transaction{low, high, other} {
		if err := p.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	p.Remove([]types.Hash{other.Hash()})

	wantKinds := []ChangeKind{TxAdded, TxRemoved, TxAdded, TxAdded, TxRemoved}
	wantHashes := []types.Hash{low.Hash(), low.Hash(), high.Hash(), other.Hash(), other.Hash()}
	if len(log) != len(wantKinds) {
		t.Fatalf("got %d changes, want %d", len(log), len(wantKinds))
	}
	for i, c := range log {
		if c.Kind != wantKinds[i] || c.Tx.Hash() != wantHashes[i] {
			t.Errorf("change %d = kind %d tx %s", i, c.Kind, c.Tx.Hash().Hex())
		}
		if c.Gen != uint64(i+1) {
			t.Errorf("change %d gen = %d", i, c.Gen)
		}
	}
	if p.Generation() != uint64(len(wantKinds)) {
		t.Errorf("pool generation = %d", p.Generation())
	}

	// A pool another goroutine is mutating: the seed must see the pending
	// set and generation of one pool state before any event, and the
	// events must continue from exactly that generation — seed plus feed
	// replay to the pool's final pending set, the same instances in the
	// same order.
	for trial := 0; trial < 20; trial++ {
		p := New()
		for i := 0; i < 20; i++ {
			if err := p.Add(tx(1, uint64(i), 10)); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 200; i++ {
				added := tx(2, uint64(i), 10)
				_ = p.Add(added)
				if i%3 == 0 {
					p.Remove([]types.Hash{added.Hash()})
				}
			}
		}()

		var model []*types.Transaction
		var next uint64
		seeds := 0
		p.Watch(func(pending []*types.Transaction, gen uint64) {
			seeds++
			model, next = slices.Clone(pending), gen+1
		}, func(c Change) {
			if seeds != 1 || c.Gen != next {
				t.Errorf("trial %d: change gen %d after %d seeds, want gen %d", trial, c.Gen, seeds, next)
			}
			next++
			if c.Kind == TxAdded {
				model = append(model, c.Tx)
			} else if i := slices.Index(model, c.Tx); i >= 0 {
				model = slices.Delete(model, i, i+1)
			} else {
				t.Errorf("trial %d: removal of an instance neither seeded nor added", trial)
			}
		})
		<-done
		if len(model) < 20 {
			t.Fatalf("trial %d: seed and feed hold %d txs, fewer than the pool had before Watch", trial, len(model))
		}
		if snap, gen := p.Snapshot(); gen != next-1 || !slices.Equal(snap, model) {
			t.Fatalf("trial %d: seed+feed replay %d txs to gen %d, pool has %d at gen %d", trial, len(model), next-1, len(snap), gen)
		}
	}
}

func TestWatchSeesClear(t *testing.T) {
	p := New()
	var removed []types.Hash
	p.Watch(noSeed, func(c Change) {
		if c.Kind == TxRemoved {
			removed = append(removed, c.Tx.Hash())
		}
	})
	var want []types.Hash
	for i := 0; i < 5; i++ {
		tr := tx(1, uint64(i), 10)
		if err := p.Add(tr); err != nil {
			t.Fatal(err)
		}
		want = append(want, tr.Hash())
	}
	p.Clear()
	if len(removed) != len(want) {
		t.Fatalf("clear emitted %d removals, want %d", len(removed), len(want))
	}
	for i := range want {
		if removed[i] != want[i] {
			t.Errorf("removal %d out of arrival order", i)
		}
	}
}

func TestSnapshotSharedAndCached(t *testing.T) {
	p := New()
	for i := 0; i < 4; i++ {
		if err := p.Add(tx(1, uint64(i), 10)); err != nil {
			t.Fatal(err)
		}
	}
	s1, g1 := p.Snapshot()
	s2, g2 := p.Snapshot()
	if g1 != g2 || len(s1) != 4 {
		t.Fatalf("snapshot gen %d/%d len %d", g1, g2, len(s1))
	}
	// Unchanged generation: identical backing array, no rebuild.
	if &s1[0] != &s2[0] {
		t.Error("unchanged pool rebuilt its snapshot")
	}
	if err := p.Add(tx(1, 4, 10)); err != nil {
		t.Fatal(err)
	}
	s3, g3 := p.Snapshot()
	if g3 == g1 || len(s3) != 5 {
		t.Fatalf("post-add snapshot gen %d len %d", g3, len(s3))
	}
	// The old snapshot is immutable history.
	if len(s1) != 4 {
		t.Error("prior snapshot mutated")
	}
}

func TestAdmittedTransactionsAreMemoized(t *testing.T) {
	p := New()
	t1 := tx(1, 0, 10)
	if err := p.Add(t1); err != nil {
		t.Fatal(err)
	}
	snap, _ := p.Snapshot()
	if !snap[0].Memoized() {
		t.Error("pool instance not memoized at admission")
	}
	if snap[0].Hash() != t1.Hash() {
		t.Error("memoized hash mismatch")
	}
	// Pending returns mutable copies, so they must NOT carry the frozen
	// cache: an edited copy has to re-derive its hash.
	cp := p.Pending()[0]
	if cp.Memoized() {
		t.Error("pending copy shares the frozen derived cache")
	}
	cp.Data = append(cp.Data, 0xff)
	if cp.Hash() == t1.Hash() {
		t.Error("mutated copy kept its old identity hash")
	}
}

func TestReplacementKeepsSenderIndexed(t *testing.T) {
	p := New()
	low := tx(1, 0, 10)
	if err := p.Add(low); err != nil {
		t.Fatal(err)
	}
	high := tx(1, 0, 20)
	if err := p.Add(high); err != nil {
		t.Fatal(err)
	}
	// Replacing the sender's only tx must keep them in the nonce index:
	// a third same-nonce tx below the resident price is underpriced, and
	// BySender still sees the sender.
	mid := tx(1, 0, 15)
	if err := p.Add(mid); !errors.Is(err, ErrUnderpriced) {
		t.Fatalf("post-replacement same-nonce add: %v (sender index orphaned)", err)
	}
	if got := p.BySender()[addr(1)]; len(got) != 1 || got[0].Hash() != high.Hash() {
		t.Fatalf("BySender lost the replaced sender: %v", got)
	}
	if p.Len() != 1 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestMutationReleasesSnapshot(t *testing.T) {
	p := New()
	if err := p.Add(tx(1, 0, 10)); err != nil {
		t.Fatal(err)
	}
	s1, g1 := p.Snapshot()
	if len(s1) != 1 {
		t.Fatal("snapshot missing tx")
	}
	p.Clear()
	// The stale cache must be dropped at mutation time (not at the next
	// Snapshot call) so evicted transactions aren't pinned in memory.
	s2, g2 := p.Snapshot()
	if len(s2) != 0 || g2 == g1 {
		t.Fatalf("post-clear snapshot len %d gen %d", len(s2), g2)
	}
}

func TestReAdmittedTxAppearsOnce(t *testing.T) {
	p := New()
	first := tx(1, 0, 10)
	second := tx(2, 0, 10)
	for _, tr := range []*types.Transaction{first, second} {
		if err := p.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	// Remove then re-admit the first tx: it must appear exactly once, at
	// its new (latest) arrival position — not duplicated at the stale one.
	p.Remove([]types.Hash{first.Hash()})
	if err := p.Add(first); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d", p.Len())
	}
	snap, _ := p.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot emitted %d txs, want 2 (duplicate arrival leak)", len(snap))
	}
	if snap[0].Hash() != second.Hash() || snap[1].Hash() != first.Hash() {
		t.Error("re-admitted tx not at its latest arrival position")
	}
	pend := p.Pending()
	if len(pend) != 2 || pend[1].Hash() != first.Hash() {
		t.Errorf("Pending emitted %d txs (duplicate arrival leak)", len(pend))
	}
	// Compaction must also keep one canonical entry per live hash.
	for i := 0; i < 700; i++ {
		filler := tx(3, uint64(i), 10)
		if err := p.Add(filler); err != nil {
			t.Fatal(err)
		}
		p.Remove([]types.Hash{filler.Hash()})
	}
	if got := p.Pending(); len(got) != 2 {
		t.Fatalf("post-compaction pending = %d", len(got))
	}
}

func TestReplacementAdmittedAtCapacity(t *testing.T) {
	p := New(WithCapacity(2))
	low := tx(1, 0, 10)
	other := tx(2, 0, 10)
	for _, tr := range []*types.Transaction{low, other} {
		if err := p.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	// Pool is full, but a price bump swaps a resident tx: admissible.
	high := tx(1, 0, 20)
	if err := p.Add(high); err != nil {
		t.Fatalf("price bump at capacity: %v", err)
	}
	if p.Len() != 2 || p.Has(low.Hash()) || !p.Has(high.Hash()) {
		t.Error("replacement did not swap the resident tx")
	}
	// A genuinely new tx is still rejected.
	if err := p.Add(tx(3, 0, 10)); !errors.Is(err, ErrPoolFull) {
		t.Errorf("over capacity: %v", err)
	}
}

func TestClearEvictsInCanonicalOrder(t *testing.T) {
	p := New()
	a, b := tx(1, 0, 10), tx(2, 0, 10)
	for _, tr := range []*types.Transaction{a, b} {
		if err := p.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	// Re-admit a: canonical pending order is now [b, a], while the raw
	// arrival log holds a stale duplicate at position 0.
	p.Remove([]types.Hash{a.Hash()})
	if err := p.Add(a); err != nil {
		t.Fatal(err)
	}
	var removed []types.Hash
	p.Watch(noSeed, func(c Change) {
		if c.Kind == TxRemoved {
			removed = append(removed, c.Tx.Hash())
		}
	})
	p.Clear()
	if len(removed) != 2 || removed[0] != b.Hash() || removed[1] != a.Hash() {
		t.Fatalf("clear order = %v, want canonical [b, a]", removed)
	}
}

func TestAdmitReturnsMemoizedInstance(t *testing.T) {
	p := New()
	orig := tx(1, 0, 10)
	got, err := p.Admit(orig)
	if err != nil {
		t.Fatal(err)
	}
	if got == orig {
		t.Error("Admit returned the caller's instance, not the pool's copy")
	}
	if !got.Memoized() {
		t.Error("admitted instance not memoized")
	}
	if got.Hash() != orig.Hash() {
		t.Error("admitted instance hash mismatch")
	}
}

func TestEvictLowestOnOverflow(t *testing.T) {
	p := New(WithCapacity(3), WithEvictLowest())
	cheapOld := tx(1, 0, 5)
	cheapNew := tx(2, 0, 5)
	mid := tx(3, 0, 7)
	for _, x := range []*types.Transaction{cheapOld, cheapNew, mid} {
		if err := p.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	// Equal price must NOT displace a resident.
	if err := p.Add(tx(4, 0, 5)); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("equal-priced newcomer: %v", err)
	}
	// A higher bid evicts the OLDEST lowest-priced resident.
	rich := tx(5, 0, 9)
	if err := p.Add(rich); err != nil {
		t.Fatal(err)
	}
	if p.Has(cheapOld.Hash()) {
		t.Error("oldest lowest-priced resident survived")
	}
	if !p.Has(cheapNew.Hash()) || !p.Has(mid.Hash()) || !p.Has(rich.Hash()) {
		t.Error("wrong victim evicted")
	}
	if p.Len() != 3 {
		t.Errorf("len = %d", p.Len())
	}
	if p.Evicted() != 1 {
		t.Errorf("evicted = %d", p.Evicted())
	}
}

func TestEvictionNotifiesWatchers(t *testing.T) {
	p := New(WithCapacity(2), WithEvictLowest())
	var removed []types.Hash
	p.Watch(noSeed, func(c Change) {
		if c.Kind == TxRemoved {
			removed = append(removed, c.Tx.Hash())
		}
	})
	victim := tx(1, 0, 1)
	p.Add(victim)
	p.Add(tx(2, 0, 2))
	if err := p.Add(tx(3, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != victim.Hash() {
		t.Errorf("watcher saw %v", removed)
	}
}

func TestRejectOverflowWithoutEvictOption(t *testing.T) {
	p := New(WithCapacity(1))
	p.Add(tx(1, 0, 1))
	if err := p.Add(tx(2, 0, 100)); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("overflow without eviction: %v", err)
	}
	if p.Evicted() != 0 {
		t.Error("phantom eviction")
	}
}

// TestAdmitBatchMatchesSequentialAdmit pins the batched path to the
// exact semantics of a sequence of individual Admit calls: same
// admitted set, same per-transaction errors, same change-feed order.
func TestAdmitBatchMatchesSequentialAdmit(t *testing.T) {
	batch := []*types.Transaction{
		tx(1, 0, 10),
		tx(2, 0, 10),
		tx(1, 0, 10), // duplicate of [0]
		tx(1, 0, 5),  // underpriced replacement of [0]
		tx(1, 0, 20), // valid replacement of [0]
		tx(3, 0, 10),
	}

	seq := New()
	var seqChanges []Change
	seq.Watch(noSeed, func(c Change) { seqChanges = append(seqChanges, c) })
	seqErrs := make([]error, len(batch))
	for i, x := range batch {
		_, seqErrs[i] = seq.Admit(x)
	}

	batched := New()
	var batchChanges []Change
	batched.Watch(noSeed, func(c Change) { batchChanges = append(batchChanges, c) })
	admitted, errs := batched.AdmitBatch(batch)

	for i := range batch {
		if (errs[i] == nil) != (seqErrs[i] == nil) || !errors.Is(errs[i], unwrapTarget(seqErrs[i])) {
			t.Errorf("tx %d: batch err %v, sequential err %v", i, errs[i], seqErrs[i])
		}
		if (admitted[i] != nil) != (errs[i] == nil) {
			t.Errorf("tx %d: admitted/err misaligned", i)
		}
		if admitted[i] != nil && !admitted[i].Memoized() {
			t.Errorf("tx %d: admitted instance not memoized", i)
		}
	}
	if seq.Len() != batched.Len() {
		t.Fatalf("pool sizes diverge: %d vs %d", seq.Len(), batched.Len())
	}
	if len(seqChanges) != len(batchChanges) {
		t.Fatalf("change feeds diverge: %d vs %d events", len(seqChanges), len(batchChanges))
	}
	for i := range seqChanges {
		if seqChanges[i].Kind != batchChanges[i].Kind ||
			seqChanges[i].Gen != batchChanges[i].Gen ||
			seqChanges[i].Tx.Hash() != batchChanges[i].Tx.Hash() {
			t.Errorf("change %d diverges: %+v vs %+v", i, seqChanges[i], batchChanges[i])
		}
	}
	a, _ := seq.Snapshot()
	b, _ := batched.Snapshot()
	for i := range a {
		if a[i].Hash() != b[i].Hash() {
			t.Errorf("arrival order diverges at %d", i)
		}
	}
}

// unwrapTarget maps a wrapped pool error to its sentinel for errors.Is
// comparison (nil stays nil, which errors.Is treats as match-on-nil).
func unwrapTarget(err error) error {
	for _, sentinel := range []error{ErrAlreadyKnown, ErrUnderpriced, ErrPoolFull, ErrRejected} {
		if errors.Is(err, sentinel) {
			return sentinel
		}
	}
	return err
}

func TestAdmitBatchValidatorAndIsolation(t *testing.T) {
	p := New(WithValidator(func(x *types.Transaction) error {
		if x.GasPrice == 0 {
			return errors.New("zero price")
		}
		return nil
	}))
	batch := []*types.Transaction{tx(1, 0, 10), tx(2, 0, 0), tx(3, 0, 10)}
	admitted, errs := p.AdmitBatch(batch)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid txs rejected: %v %v", errs[0], errs[2])
	}
	if !errors.Is(errs[1], ErrRejected) || admitted[1] != nil {
		t.Fatalf("validator miss: %v", errs[1])
	}
	// The pool must hold private copies: mutating the caller's instances
	// afterwards must not reach the admitted ones.
	batch[0].Data[0] ^= 0xff
	if admitted[0].Data[0] == batch[0].Data[0] {
		t.Error("AdmitBatch shares the caller's Data slice")
	}
	if p.Len() != 2 {
		t.Fatalf("len = %d, want 2", p.Len())
	}
}

// TestSnapshotAppendsOnAdmission pins the cached snapshot's contract: an
// admission extends the cached slice in place instead of discarding it,
// every slice handed out stays exactly what it was — limited to its own
// length, so not even the caller's append can reach the shared array —
// and a removal drops the cache, so it pins no removed transaction.
func TestSnapshotAppendsOnAdmission(t *testing.T) {
	p := New()
	// A rebuild is sized exactly; admit behind one until the cached slice
	// has room, so the admission under test cannot need a larger array.
	for i := 0; i < 3 || cap(p.snap) == len(p.snap); i++ {
		if err := p.Add(tx(1, uint64(i), 10)); err != nil {
			t.Fatal(err)
		}
		p.Snapshot()
	}
	s1, g1 := p.Snapshot()
	held := append([]*types.Transaction(nil), s1...)
	if gen, ok := p.SnapshotGeneration(s1); !ok || gen != g1 {
		t.Fatalf("the current snapshot is not recognised: gen %d ok %v", gen, ok)
	}
	if cap(s1) != len(s1) {
		t.Fatalf("snapshot handed out with spare capacity %d", cap(s1)-len(s1))
	}

	if err := p.Add(tx(2, 0, 10)); err != nil {
		t.Fatal(err)
	}
	s2, g2 := p.Snapshot()
	if len(s2) != len(s1)+1 || g2 == g1 || &s2[0] != &s1[0] {
		t.Fatalf("admission rebuilt the snapshot: len %d, shared array %v", len(s2), &s2[0] == &s1[0])
	}
	if _, ok := p.SnapshotGeneration(s1); ok {
		t.Error("a snapshot the pool moved past still passes for current")
	}
	if _, ok := p.SnapshotGeneration(s2[1:]); ok {
		t.Error("a tail of the snapshot passes for the snapshot")
	}

	removed := s2[1]
	p.Remove([]types.Hash{removed.Hash()})
	if p.snap != nil {
		t.Error("a removal left the cached snapshot, which pins the removed transaction")
	}
	for _, slot := range p.arrival {
		if slot == removed {
			t.Error("a removal left the transaction in its arrival slot")
		}
	}
	s3, _ := p.Snapshot()
	if want := append([]*types.Transaction{held[0]}, s2[2:]...); !slices.Equal(s3, want) {
		t.Fatalf("post-removal snapshot of %d txs is not the previous one without the removed", len(s3))
	}
	if _, ok := p.SnapshotGeneration(s2); ok {
		t.Error("a pre-removal snapshot passes for current")
	}
	for i := range held {
		if s1[i] != held[i] || s2[i] != held[i] {
			t.Fatalf("a snapshot handed out earlier changed at %d", i)
		}
	}

	p.Clear()
	if p.snap != nil || len(p.arrival) != 0 {
		t.Error("Clear kept transactions reachable")
	}
	if empty, gen := p.Snapshot(); len(empty) != 0 {
		t.Fatal("snapshot of a cleared pool is not empty")
	} else if got, ok := p.SnapshotGeneration(nil); !ok || got != gen {
		t.Error("an empty pending set is not recognised as the empty pool's snapshot")
	}
}

// TestSnapshotMatchesModelUnderChurn drives admissions (single and
// batched), removals, re-admissions, price-bump replacements, evict-lowest
// overflow and Clear against a plain ordered list, and checks after every
// operation that Snapshot, Pending and SnapshotMinGas's snapshot are that
// list and its smallest GasLimit — and that every snapshot handed out in
// the last few steps still reads as it did then.
func TestSnapshotMatchesModelUnderChurn(t *testing.T) {
	p := New(WithCapacity(40), WithEvictLowest())
	var model []*types.Transaction // pool instances, arrival order
	p.Watch(noSeed, func(c Change) {
		if c.Kind == TxAdded {
			model = append(model, c.Tx)
			return
		}
		for i, m := range model {
			if m == c.Tx {
				model = append(model[:i:i], model[i+1:]...)
				return
			}
		}
		t.Errorf("removal of a transaction the model does not hold")
	})
	type handed struct{ shared, copied []*types.Transaction }
	var history []handed
	var gone []*types.Transaction
	rng := rand.New(rand.NewSource(11))
	nonces := map[byte]uint64{}
	fresh := func() *types.Transaction {
		s := byte(rng.Intn(8) + 1)
		nonces[s]++
		next := tx(s, nonces[s], uint64(rng.Intn(4)+1)*5)
		next.GasLimit = 21_000 * (1 + nonces[s]%5)
		return next
	}
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(20); {
		case op < 8:
			_ = p.Add(fresh()) // full pools refuse the cheapest newcomers
		case op < 10:
			p.AdmitBatch([]*types.Transaction{fresh(), fresh(), fresh()})
		case op < 12 && len(model) > 0: // price bump on a resident nonce
			bump := model[rng.Intn(len(model))].Copy()
			bump.GasPrice += 5
			_ = p.Add(bump)
		case op < 14 && len(gone) > 0: // re-admission at a new position
			i := rng.Intn(len(gone))
			_ = p.Add(gone[i])
			gone = append(gone[:i], gone[i+1:]...)
		case op < 19 && len(model) > 0:
			victim := model[rng.Intn(len(model))]
			gone = append(gone, victim.Copy())
			p.Remove([]types.Hash{victim.Hash()})
		case op == 19 && rng.Intn(20) == 0:
			p.Clear()
		}
		snap, _ := p.Snapshot()
		if !slices.Equal(snap, model) {
			t.Fatalf("step %d: snapshot of %d txs is not the model's %d in arrival order", step, len(snap), len(model))
		}
		least := ^uint64(0)
		for _, tx := range model {
			least = min(least, tx.GasLimit)
		}
		if withMin, minGas := p.SnapshotMinGas(); !slices.Equal(withMin, model) || minGas != least {
			t.Fatalf("step %d: SnapshotMinGas gave %d txs and a least GasLimit of %d, model %d and %d", step, len(withMin), minGas, len(model), least)
		}
		pending := p.Pending()
		if len(pending) != len(model) || p.Len() != len(model) {
			t.Fatalf("step %d: Pending %d, Len %d, model %d", step, len(pending), p.Len(), len(model))
		}
		for i, cp := range pending {
			if cp.Hash() != model[i].Hash() {
				t.Fatalf("step %d: Pending[%d] out of arrival order", step, i)
			}
		}
		history = append(history, handed{snap, slices.Clone(snap)})
		if len(history) > 8 {
			history = history[1:]
		}
		for _, h := range history {
			if !slices.Equal(h.shared, h.copied) {
				t.Fatalf("step %d: a snapshot handed out earlier changed", step)
			}
		}
	}
	if p.Evicted() == 0 {
		t.Error("the churn never overflowed the pool")
	}
}
