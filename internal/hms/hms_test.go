package hms

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sereth/internal/asm"
	"sereth/internal/types"
)

var (
	contract = types.Address{19: 0xcc}
	owner    = types.Address{19: 0x01}
)

func cfg() Config {
	return Config{
		Contract:    contract,
		SetSelector: asm.SelSet,
		BuySelector: asm.SelBuy,
	}
}

var nonceCounter uint64

func setTx(flag, prev, value types.Word) *types.Transaction {
	nonceCounter++
	return &types.Transaction{
		Nonce:    nonceCounter,
		From:     owner,
		To:       contract,
		GasPrice: 10,
		GasLimit: 200000,
		Data:     types.EncodeCall(asm.SelSet, flag, prev, value),
	}
}

func buyTx(prev, value types.Word) *types.Transaction {
	nonceCounter++
	return &types.Transaction{
		Nonce:    nonceCounter,
		From:     types.Address{19: 0x02},
		To:       contract,
		GasPrice: 10,
		GasLimit: 200000,
		Data:     types.EncodeCall(asm.SelBuy, types.FlagChain, prev, value),
	}
}

// chain builds n set transactions chained from the given mark.
func chain(from types.Word, values ...uint64) ([]*types.Transaction, []types.Word) {
	var txs []*types.Transaction
	var marks []types.Word
	prev := from
	flag := types.FlagHead
	for _, v := range values {
		val := types.WordFromUint64(v)
		txs = append(txs, setTx(flag, prev, val))
		prev = types.NextMark(prev, val)
		marks = append(marks, prev)
		flag = types.FlagChain
	}
	return txs, marks
}

// TestProcessFilters: Algorithm 2's filter. Each rejected transaction
// claims to extend the one good set, so admitting any of them would
// deepen the series.
func TestProcessFilters(t *testing.T) {
	tr := NewTracker(cfg())
	good := setTx(types.FlagHead, types.ZeroWord, types.WordFromUint64(5))
	wantMark := types.NextMark(types.ZeroWord, types.WordFromUint64(5))
	wrongContract := setTx(types.FlagChain, wantMark, types.WordFromUint64(6))
	wrongContract.To = types.Address{19: 0xdd}
	wrongSelector := buyTx(wantMark, types.WordFromUint64(7))
	badFlag := setTx(types.WordFromUint64(9), wantMark, types.WordFromUint64(8))
	short := &types.Transaction{To: contract, Data: asm.SelSet[:]}

	pool := []*types.Transaction{good, wrongContract, wrongSelector, badFlag, short}
	series := tr.SeriesOf(pool)
	if len(series) != 1 {
		t.Fatalf("series kept %d sets, want 1", len(series))
	}
	if series[0].Tx != good {
		t.Error("wrong set kept")
	}
	if series[0].Mark != wantMark {
		t.Error("mark not computed")
	}
	if view := tr.ViewOf(pool); view.Depth != 1 || view.AMV.Mark != wantMark {
		t.Errorf("view = %+v", view)
	}
}

// TestProcessDedupesMarks: of the sets that share a mark the first in the
// slice stands, whether they are resubmissions of one (prev, value) pair,
// two instances of one transaction or one instance listed twice — and the
// reference agrees on view, series and prefix.
func TestProcessDedupesMarks(t *testing.T) {
	tr := NewTracker(cfg())
	five := types.WordFromUint64(5)
	a := setTx(types.FlagHead, types.ZeroWord, five)
	b := setTx(types.FlagHead, types.ZeroWord, five) // same (prev,value)
	for _, pool := range [][]*types.Transaction{{a, b}, {b, a}} {
		if series := tr.SeriesOf(pool); len(series) != 1 || series[0].Tx != pool[0] {
			t.Fatalf("dedupe must keep the first arrival: %d sets", len(series))
		}
	}

	markA := types.NextMark(types.ZeroWord, five)
	child := setTx(types.FlagChain, markA, types.WordFromUint64(6))
	buy := buyTx(markA, five)
	twin, buyTwin := a.Copy(), buy.Copy() // equal hashes, distinct instances
	pool := []*types.Transaction{buy, twin, a, buyTwin, child, a, twin, child, buy}
	nodes, buys := refProcess(cfg(), pool)
	series := refSeries(cfg(), types.ZeroWord, nodes)
	if len(series) != 2 || series[0].Tx != twin {
		t.Fatalf("reference series of %d sets", len(series))
	}
	if got := tr.SeriesOf(pool); !sameNodes(got, series) {
		t.Errorf("series of %d sets, reference %d", len(got), len(series))
	}
	if got, want := tr.ViewOf(pool), refView(types.AMV{}, series); got != want {
		t.Errorf("view %+v, reference %+v", got, want)
	}
	if got, _ := tr.SemanticPrefix(pool); !slices.Equal(got, refPrefix(types.ZeroWord, buys, series)) {
		t.Errorf("prefix of %d txs differs from the reference's", len(got))
	}
}

func TestSeriesLinearChain(t *testing.T) {
	tr := NewTracker(cfg())
	txs, marks := chain(types.ZeroWord, 5, 7, 9)
	series := tr.SeriesOf(txs)
	if len(series) != 3 {
		t.Fatalf("series len = %d", len(series))
	}
	for i, n := range series {
		if n.Mark != marks[i] {
			t.Errorf("series[%d] mark mismatch", i)
		}
		if i > 0 && n.FPV.PrevMark != series[i-1].Mark {
			t.Error("series member does not chain off its predecessor")
		}
	}
	view := tr.ViewOf(txs)
	if view.Depth != 3 || view.Flag != types.FlagChain {
		t.Errorf("view = %+v", view)
	}
	if v, _ := view.AMV.Value.Uint64(); v != 9 {
		t.Errorf("view value = %d", v)
	}
	if view.AMV.Mark != marks[2] {
		t.Error("view mark is not the tail mark")
	}
}

func TestSeriesShuffledPoolSameSeries(t *testing.T) {
	tr := NewTracker(cfg())
	txs, _ := chain(types.ZeroWord, 1, 2, 3, 4, 5, 6)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]*types.Transaction{}, txs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		series := tr.SeriesOf(shuffled)
		if len(series) != 6 {
			t.Fatalf("trial %d: len %d", trial, len(series))
		}
		for i, n := range series {
			if v, _ := n.FPV.Value.Uint64(); v != uint64(i+1) {
				t.Fatalf("trial %d: series order broken at %d", trial, i)
			}
		}
	}
}

func TestSeriesForkChoosesDeepest(t *testing.T) {
	tr := NewTracker(cfg())
	// Head set(5); then fork: branch A = set(7); branch B = set(8),set(9).
	head := setTx(types.FlagHead, types.ZeroWord, types.WordFromUint64(5))
	m1 := types.NextMark(types.ZeroWord, types.WordFromUint64(5))
	forkA := setTx(types.FlagChain, m1, types.WordFromUint64(7))
	forkB1 := setTx(types.FlagChain, m1, types.WordFromUint64(8))
	mB1 := types.NextMark(m1, types.WordFromUint64(8))
	forkB2 := setTx(types.FlagChain, mB1, types.WordFromUint64(9))

	series := tr.SeriesOf([]*types.Transaction{head, forkA, forkB1, forkB2})
	if len(series) != 3 {
		t.Fatalf("series len = %d, want deepest branch of 3", len(series))
	}
	if v, _ := series[2].FPV.Value.Uint64(); v != 9 {
		t.Error("deepest branch not chosen")
	}
	_ = forkA
}

func TestSeriesMultipleHeadCandidates(t *testing.T) {
	tr := NewTracker(cfg())
	// Two competing heads; the one with the longer tail wins (mirrors
	// longest-chain fork choice).
	shortHead := setTx(types.FlagHead, types.ZeroWord, types.WordFromUint64(1))
	longTxs, _ := chain(types.ZeroWord, 2, 3)
	pool := append([]*types.Transaction{shortHead}, longTxs...)
	series := tr.SeriesOf(pool)
	if len(series) != 2 {
		t.Fatalf("series len = %d", len(series))
	}
	if v, _ := series[0].FPV.Value.Uint64(); v != 2 {
		t.Error("wrong head chosen")
	}
}

func TestHeadMustMatchCommittedMark(t *testing.T) {
	tr := NewTracker(cfg())
	committedMark := types.NextMark(types.ZeroWord, types.WordFromUint64(99))
	tr.SetCommitted(types.AMV{Mark: committedMark, Value: types.WordFromUint64(99)})

	// A head flagged off a stale mark (zero) is not a valid candidate.
	stale := setTx(types.FlagHead, types.ZeroWord, types.WordFromUint64(5))
	if got := tr.SeriesOf([]*types.Transaction{stale}); got != nil {
		t.Error("stale head accepted")
	}
	// View falls back to the committed state.
	view := tr.ViewOf([]*types.Transaction{stale})
	if view.Depth != 0 || view.Flag != types.FlagHead || view.AMV.Mark != committedMark {
		t.Errorf("fallback view = %+v", view)
	}
	// A head matching the committed mark is accepted.
	fresh := setTx(types.FlagHead, committedMark, types.WordFromUint64(5))
	if got := tr.SeriesOf([]*types.Transaction{stale, fresh}); len(got) != 1 {
		t.Errorf("fresh head rejected: %d", len(got))
	}
}

func TestExtendHeadsRecoversOrphans(t *testing.T) {
	// After a block commits the head set, its pending successor is
	// orphaned (chain flag, no in-pool parent). The paper loses these
	// (§V-C); ExtendHeads recovers them.
	committedMark := types.NextMark(types.ZeroWord, types.WordFromUint64(5))
	orphan := setTx(types.FlagChain, committedMark, types.WordFromUint64(7))

	plain := NewTracker(cfg())
	plain.SetCommitted(types.AMV{Mark: committedMark})
	if got := plain.SeriesOf([]*types.Transaction{orphan}); got != nil {
		t.Error("baseline tracker should lose the orphan")
	}

	extCfg := cfg()
	extCfg.ExtendHeads = true
	ext := NewTracker(extCfg)
	ext.SetCommitted(types.AMV{Mark: committedMark})
	if got := ext.SeriesOf([]*types.Transaction{orphan}); len(got) != 1 {
		t.Errorf("extended tracker lost the orphan: %d", len(got))
	}
}

func TestViewEmptyPool(t *testing.T) {
	tr := NewTracker(cfg())
	amv := types.AMV{Address: owner, Mark: types.NextMark(types.ZeroWord, types.WordFromUint64(3)), Value: types.WordFromUint64(3)}
	tr.SetCommitted(amv)
	view := tr.ViewOf(nil)
	if view.AMV != amv || view.Flag != types.FlagHead || view.Depth != 0 {
		t.Errorf("view = %+v", view)
	}
}

func TestBuysByInterval(t *testing.T) {
	tr := NewTracker(cfg())
	m1 := types.NextMark(types.ZeroWord, types.WordFromUint64(5))
	m2 := types.NextMark(m1, types.WordFromUint64(7))
	b1 := buyTx(m1, types.WordFromUint64(5))
	b2 := buyTx(m1, types.WordFromUint64(5))
	b3 := buyTx(m2, types.WordFromUint64(7))
	set := setTx(types.FlagHead, types.ZeroWord, types.WordFromUint64(5))
	pool := []*types.Transaction{b1, set, b2, b3}

	groups := fill(cfg(), pool).buys
	if !slices.Equal(groups[m1], []*types.Transaction{b1, b2}) || !slices.Equal(groups[m2], []*types.Transaction{b3}) {
		t.Errorf("groups: %d/%d", len(groups[m1]), len(groups[m2]))
	}
	// Only the buys of an interval the series opens are scheduled.
	if prefix, _ := tr.SemanticPrefix(pool); !slices.Equal(prefix, []*types.Transaction{set, b1, b2}) {
		t.Errorf("prefix of %d txs", len(prefix))
	}
}

func TestIsManaged(t *testing.T) {
	tr := NewTracker(cfg())
	if !tr.IsManaged(setTx(types.FlagHead, types.ZeroWord, types.ZeroWord)) {
		t.Error("set not managed")
	}
	if !tr.IsManaged(buyTx(types.ZeroWord, types.ZeroWord)) {
		t.Error("buy not managed")
	}
	other := setTx(types.FlagHead, types.ZeroWord, types.ZeroWord)
	other.To = types.Address{19: 0xee}
	if tr.IsManaged(other) {
		t.Error("foreign contract managed")
	}
	if tr.IsManaged(&types.Transaction{To: contract, Data: []byte{1}}) {
		t.Error("selector-less tx managed")
	}
}

// Property: lost-update / frontrunning protection (paper §V-B). A buy's
// prevMark identifies the exact set interval it was issued against: the
// sequence set(5), buy@1(5), set(7), set(5), buy@2(5) gives the two buys
// different marks even though price and value match.
func TestLostUpdateIntervalProperty(t *testing.T) {
	five, seven := types.WordFromUint64(5), types.WordFromUint64(7)
	m1 := types.NextMark(types.ZeroWord, five) // after set(5)
	m2 := types.NextMark(m1, seven)            // after set(7)
	m3 := types.NextMark(m2, five)             // after second set(5)
	buyFirst := buyTx(m1, five)
	buySecond := buyTx(m3, five)
	f1, _ := buyFirst.FPV()
	f2, _ := buySecond.FPV()
	if f1.PrevMark == f2.PrevMark {
		t.Fatal("buys in different intervals share a mark")
	}
	if f1.Value != f2.Value {
		t.Fatal("test setup: values should match")
	}
}

// Property: for any chained series the computed view is always the tail,
// and every prefix is itself sequentially consistent.
func TestQuickSeriesSequentialConsistency(t *testing.T) {
	f := func(valuesRaw []uint8, seed int64) bool {
		if len(valuesRaw) == 0 {
			return true
		}
		if len(valuesRaw) > 30 {
			valuesRaw = valuesRaw[:30]
		}
		values := make([]uint64, len(valuesRaw))
		for i, v := range valuesRaw {
			values[i] = uint64(v) + 1
		}
		tr := NewTracker(cfg())
		txs, marks := chain(types.ZeroWord, values...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(txs), func(i, j int) { txs[i], txs[j] = txs[j], txs[i] })
		series := tr.SeriesOf(txs)
		if len(series) != len(values) {
			return false
		}
		// Program order: each node's prev mark is its predecessor's mark.
		prev := types.ZeroWord
		for i, n := range series {
			if n.FPV.PrevMark != prev {
				return false
			}
			if n.Mark != marks[i] {
				return false
			}
			prev = n.Mark
		}
		view := tr.ViewOf(txs)
		return view.AMV.Mark == marks[len(marks)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Termination guard: self-referential marks must not loop.
func TestAdversarialSelfReference(t *testing.T) {
	tr := NewTracker(cfg())
	// A tx claiming prevMark equal to its own computed mark cannot be
	// constructed without a Keccak fixed point, but a pair colliding via
	// crafted duplicate marks must still terminate.
	a := setTx(types.FlagHead, types.ZeroWord, types.WordFromUint64(1))
	mA := types.NextMark(types.ZeroWord, types.WordFromUint64(1))
	b := setTx(types.FlagChain, mA, types.WordFromUint64(2))
	// c duplicates b's (prev,value) — deduped by mark.
	c := setTx(types.FlagChain, mA, types.WordFromUint64(2))
	series := tr.SeriesOf([]*types.Transaction{a, b, c})
	if len(series) != 2 {
		t.Errorf("series len = %d", len(series))
	}
}

// BenchmarkProcess is Algorithm 2 alone: filling a dag with the pool.
func BenchmarkProcess(b *testing.B) {
	for _, size := range []int{100, 1000, 10000} {
		b.Run(benchName("pool", size), func(b *testing.B) {
			values := make([]uint64, size)
			for i := range values {
				values[i] = uint64(i + 1)
			}
			txs, _ := chain(types.ZeroWord, values...)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := fill(cfg(), txs); len(got.sets) != size {
					b.Fatal("wrong set count")
				}
			}
		})
	}
}

func BenchmarkSeries(b *testing.B) {
	for _, size := range []int{100, 1000} {
		b.Run(benchName("chain", size), func(b *testing.B) {
			tr := NewTracker(cfg())
			values := make([]uint64, size)
			for i := range values {
				values[i] = uint64(i + 1)
			}
			txs, _ := chain(types.ZeroWord, values...)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := tr.SeriesOf(txs); len(got) != size {
					b.Fatal("wrong series length")
				}
			}
		})
	}
}

func benchName(prefix string, n int) string {
	switch {
	case n >= 1000:
		return prefix + "-" + itoa(n/1000) + "k"
	default:
		return prefix + "-" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
