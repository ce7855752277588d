package evm

// Tests for the SHA3 elision layer (elision.go): the per-tx hint and
// the content-keyed memo must be invisible — bit-identical results to
// the raw-sponge reference — and actually elide, which is asserted by
// keccak invocation count, not timing.

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"sereth/internal/keccak"
	"sereth/internal/types"
)

// sha3Prog builds: copy `size` calldata bytes from dataOff to memory 0,
// SHA3 over [0, size), store the digest at memory 0 and return it (or
// revert with it, exercising the reverted-frame path).
func sha3Prog(dataOff, size byte, revert bool) []byte {
	code := []byte{
		byte(PUSH1), size, byte(PUSH1), dataOff, byte(PUSH1), 0x00, byte(CALLDATACOPY),
		byte(PUSH1), size, byte(PUSH1), 0x00, byte(SHA3),
		byte(PUSH1), 0x00, byte(MSTORE),
		byte(PUSH1), 0x20, byte(PUSH1), 0x00,
	}
	if revert {
		return append(code, byte(REVERT))
	}
	return append(code, byte(RETURN))
}

func seqBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

// hintFor builds a self-consistent admission-style hint over the
// calldata regions Transaction.MarkHint/PrevHint would expose: the
// 64-byte region at offset 36 and its 32-byte prefix.
func hintFor(input []byte) TxHint {
	if len(input) < 100 {
		return TxHint{}
	}
	mi, pi := input[36:100], input[36:68]
	return TxHint{
		MarkInput: mi, Mark: types.Keccak(mi).Word(),
		PrevInput: pi, PrevDigest: types.Keccak(pi).Word(),
	}
}

// TestSha3HintDifferential runs SHA3 programs over 31/32/33/63/64/65-
// byte regions — aligned with, overlapping and disjoint from the
// hinted calldata regions, in returning and reverting frames — through
// the hinted jump table and the raw generic reference. Results must be
// bit-identical: a hint may only ever be served for exactly its own
// content.
func TestSha3HintDifferential(t *testing.T) {
	input := seqBytes(128)
	for _, revert := range []bool{false, true} {
		for _, dataOff := range []byte{0, 4, 35, 36, 37, 68} {
			for _, size := range []byte{0, 31, 32, 33, 63, 64, 65} {
				code := sha3Prog(dataOff, size, revert)
				ctx := CallContext{
					Caller:   types.Address{19: 0xaa},
					Contract: types.Address{19: 0xcc},
					Input:    input,
					Gas:      100_000,
				}
				stHint, stGen := newDiffState(code), newDiffState(code)
				block := BlockContext{Number: 42, Time: 1234}
				eh := New(stHint, block)
				eh.SetTxHint(hintFor(input))
				resHint := eh.Call(ctx)
				resGen := New(stGen, block).CallGeneric(ctx)

				if resHint.Err != resGen.Err || resHint.GasUsed != resGen.GasUsed ||
					!bytes.Equal(resHint.ReturnData, resGen.ReturnData) {
					t.Errorf("off=%d size=%d revert=%v: hinted (%v, gas %d, %x) != generic (%v, gas %d, %x)",
						dataOff, size, revert,
						resHint.Err, resHint.GasUsed, resHint.ReturnData,
						resGen.Err, resGen.GasUsed, resGen.ReturnData)
				}
				if !stHint.equal(stGen) {
					t.Errorf("off=%d size=%d revert=%v: storage diverged", dataOff, size, revert)
				}
			}
		}
	}
}

// TestSha3HintMismatchedCalldataNeverServed pins the adversarial case:
// a hint whose digest is garbage for its content must never influence a
// SHA3 over different bytes — only an exact content match may be
// served, so the wrong digest is unreachable unless the hashed region
// IS the hint region.
func TestSha3HintMismatchedCalldataNeverServed(t *testing.T) {
	input := seqBytes(128)
	code := sha3Prog(0, 64, false) // hashes input[0:64], NOT the hint region
	eh := New(newDiffState(code), BlockContext{})
	poison := types.Word{0: 0xde, 1: 0xad}
	eh.SetTxHint(TxHint{
		MarkInput: input[36:100], Mark: poison,
		PrevInput: input[36:68], PrevDigest: poison,
	})
	res := eh.Call(CallContext{Contract: types.Address{19: 0xcc}, Input: input, Gas: 100_000})
	want := types.Keccak(input[:64]).Word()
	if res.Err != nil || res.ReturnWord() != want {
		t.Fatalf("SHA3 over non-hint bytes: got %x err %v, want raw digest %x", res.ReturnWord(), res.Err, want)
	}
}

// TestSha3HintElidesByCount asserts elision by hash count: a SHA3 over
// exactly the hinted 64-byte region runs zero sponges, the same program
// without a hint runs exactly one, and a cleared (zero) hint never
// matches an empty region.
func TestSha3HintElidesByCount(t *testing.T) {
	input := seqBytes(128)
	code := sha3Prog(36, 64, false)
	ctx := CallContext{Contract: types.Address{19: 0xcc}, Input: input, Gas: 100_000}
	block := BlockContext{}
	want := types.Keccak(input[36:100]).Word()

	eh := New(newDiffState(code), block)
	eh.SetTxHint(hintFor(input))
	before := keccak.Invocations()
	res := eh.Call(ctx)
	if n := keccak.Invocations() - before; n != 0 {
		t.Errorf("hinted SHA3: %d sponges, want 0", n)
	}
	if res.ReturnWord() != want {
		t.Errorf("hinted SHA3: digest %x, want %x", res.ReturnWord(), want)
	}

	bare := New(newDiffState(code), block)
	before = keccak.Invocations()
	res = bare.Call(ctx)
	if n := keccak.Invocations() - before; n != 1 {
		t.Errorf("unhinted SHA3: %d sponges, want 1", n)
	}
	if res.ReturnWord() != want {
		t.Errorf("unhinted SHA3: digest %x, want %x", res.ReturnWord(), want)
	}

	// Same machine, second identical call: the content memo now holds
	// the digest, so the repeat runs zero sponges.
	before = keccak.Invocations()
	res = bare.Call(ctx)
	if n := keccak.Invocations() - before; n != 0 {
		t.Errorf("memoized repeat SHA3: %d sponges, want 0", n)
	}
	if res.ReturnWord() != want {
		t.Errorf("memoized repeat SHA3: digest %x, want %x", res.ReturnWord(), want)
	}

	// Empty region with a cleared hint: the zero TxHint must not match
	// the empty input (Keccak("") is a real, nonzero digest).
	empty := New(newDiffState(sha3Prog(0, 0, false)), block)
	empty.SetTxHint(TxHint{})
	res = empty.Call(ctx)
	if wantEmpty := types.Keccak(nil).Word(); res.ReturnWord() != wantEmpty {
		t.Errorf("SHA3 of empty region: digest %x, want %x", res.ReturnWord(), wantEmpty)
	}
}

// TestSha3ResetClearsHintKeepsMemo pins the Reset contract: a recycled
// machine must drop the previous transaction's hint but may keep the
// content memo (its hits are byte-verified, so entries cannot go
// stale).
func TestSha3ResetClearsHintKeepsMemo(t *testing.T) {
	input := seqBytes(128)
	code := sha3Prog(36, 64, false)
	ctx := CallContext{Contract: types.Address{19: 0xcc}, Input: input, Gas: 100_000}
	e := New(newDiffState(code), BlockContext{})
	e.SetTxHint(hintFor(input))
	if len(e.hint.MarkInput) == 0 {
		t.Fatal("hint not installed")
	}
	e.Call(ctx) // hint hit; memo untouched
	e.Reset(newDiffState(code))
	if len(e.hint.MarkInput) != 0 || len(e.hint.PrevInput) != 0 {
		t.Fatal("Reset must clear the per-tx hint")
	}
	// Without the hint the first call computes (1 sponge) and memoizes;
	// Reset again, then the repeat must hit the surviving memo.
	e.Call(ctx)
	e.Reset(newDiffState(code))
	before := keccak.Invocations()
	res := e.Call(ctx)
	if n := keccak.Invocations() - before; n != 0 {
		t.Errorf("memo after Reset: %d sponges, want 0 (memo must survive Reset)", n)
	}
	if want := types.Keccak(input[36:100]).Word(); res.ReturnWord() != want {
		t.Errorf("memo after Reset: digest %x, want %x", res.ReturnWord(), want)
	}
}

// TestSha3MemoDifferential fuzzes the memo + hint entry point directly
// against the raw sponge: random sizes around every boundary the memo
// and hint care about (0, 31..33, 63..65, above the memo cap), with
// heavy content repetition to drive both hit and collision-evict
// paths.
func TestSha3MemoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	e := New(newDiffState(nil), BlockContext{})
	pool := make([][]byte, 0, 64)
	for i := 0; i < 5000; i++ {
		var data []byte
		if len(pool) > 0 && rng.Intn(2) == 0 {
			data = pool[rng.Intn(len(pool))] // repeat: exercise hits
		} else {
			sizes := []int{0, 1, 31, 32, 33, 63, 64, 65, 80, 136, 200}
			data = make([]byte, sizes[rng.Intn(len(sizes))])
			rng.Read(data)
			pool = append(pool, data)
		}
		if i%100 == 0 {
			// Rotate self-consistent hints through the stream.
			h := TxHint{}
			if len(data) > 0 {
				h = TxHint{MarkInput: data, Mark: types.Keccak(data).Word()}
			}
			e.SetTxHint(h)
		}
		got := e.sha3(data)
		if want := types.Keccak(data).Word(); got != want {
			t.Fatalf("iteration %d (len %d): elided %x, raw %x", i, len(data), got, want)
		}
	}
}

// TestSha3MemoKeepsPricesThatShareALastByte: a body that hashes price A,
// then price B — a word with A's length, first byte (zero, as every
// price's) and last byte — then A again computes A's digest once. The
// memo's slot used to be chosen by those three alone, so B evicted A and
// the block hashed A twice.
func TestSha3MemoKeepsPricesThatShareALastByte(t *testing.T) {
	a, b := types.WordFromUint64(0x0105), types.WordFromUint64(0x0205)
	prices := []types.Word{a, b, a}
	want := make([]types.Word, len(prices))
	for i, price := range prices {
		want[i] = types.Keccak(price[:]).Word()
	}
	ctx := CallContext{Contract: types.Address{19: 0xcc}, Gas: 100_000}
	e := New(newDiffState(sha3Prog(36, 32, false)), BlockContext{})
	defer e.Release()
	got := make([]types.Word, len(prices))
	before := keccak.Invocations()
	for i, price := range prices {
		ctx.Input = append(make([]byte, 36), price[:]...)
		got[i] = e.Call(ctx).ReturnWord()
	}
	if n := keccak.Invocations() - before; n != 2 {
		t.Errorf("A, B, A: %d sponges, want 2", n)
	}
	if !slices.Equal(got, want) {
		t.Errorf("A, B, A: digests %x, want %x", got, want)
	}
}

// TestSha3MemoSetKeepsTwoWords: three words that fall in one set, hashed
// A, B, A, C, A, B, cost four sponges. The set holds A and B; the hit on
// A leaves B the less recently used, so C replaces B and A hits again,
// and B, evicted, is hashed again. A direct-mapped memo hashes A three
// times.
func TestSha3MemoSetKeepsTwoWords(t *testing.T) {
	var memo sha3Memo
	rng := rand.New(rand.NewSource(5))
	word := func() []byte {
		w := make([]byte, 32)
		rng.Read(w)
		return w
	}
	a := word()
	b, c := word(), word()
	for memo.slot(b) != memo.slot(a) {
		b = word()
	}
	for memo.slot(c) != memo.slot(a) || bytes.Equal(c, b) {
		c = word()
	}
	ctx := CallContext{Contract: types.Address{19: 0xcc}, Gas: 100_000}
	e := New(newDiffState(sha3Prog(36, 32, false)), BlockContext{})
	defer e.Release()
	sponges := 0
	for i, w := range [][]byte{a, b, a, c, a, b} {
		ctx.Input = append(make([]byte, 36), w...)
		want := types.Keccak(w).Word()
		before := keccak.Invocations()
		got := e.Call(ctx).ReturnWord()
		sponges += int(keccak.Invocations() - before)
		if got != want {
			t.Fatalf("word %d: digest %x, want %x", i, got, want)
		}
	}
	if sponges != 4 {
		t.Errorf("A, B, A, C, A, B in one set: %d sponges, want 4", sponges)
	}
}

// TestPooledScratchCarriesNothing pins Release: the machine goes back
// with no state, no RAA provider, no hint and no memo entry, and the next
// New — whether or not the pool hands that machine out again — starts
// without them. What it does keep is the return buffer's capacity,
// emptied: that buffer holds bytes, not references, and a Result aliases
// it only until the machine's next Call or Release, so each round below
// compares its return data before Release. The second half does not look
// inside: it has a machine hash another program's inputs — same lengths
// as the next caller's and chosen to land in the same memo sets —
// releases it, and demands the next caller's digests, gas and sponge
// count from a machine that never was in the pool.
func TestPooledScratchCarriesNothing(t *testing.T) {
	input := seqBytes(128)
	ctx := CallContext{Contract: types.Address{19: 0xcc}, Input: input, Gas: 100_000}
	e := New(newDiffState(sha3Prog(36, 64, false)), BlockContext{Number: 7})
	e.SetRAAProvider(raaEcho{})
	e.SetTxHint(hintFor(input))
	if res := e.Call(ctx); len(res.ReturnData) == 0 {
		t.Fatal("the program returned nothing")
	}
	readOnly := ctx
	readOnly.ReadOnly = true
	readOnly.Input = e.Input(len(input))
	copy(readOnly.Input, input)
	e.Call(readOnly) // RAA augments the lent input into the machine's buffer
	e.Release()
	if e.state != nil || e.raa != nil || e.hint.MarkInput != nil || e.hint.PrevInput != nil ||
		!e.hint.Mark.IsZero() || !e.hint.PrevDigest.IsZero() {
		t.Fatalf("released machine keeps state %v, raa %v, hint %+v", e.state, e.raa, e.hint)
	}
	if len(e.ret) != 0 || cap(e.ret) == 0 {
		t.Fatalf("released machine's return buffer: %d bytes, capacity %d; want empty, capacity kept", len(e.ret), cap(e.ret))
	}
	if len(e.aug) != 0 || cap(e.aug) == 0 {
		t.Fatalf("released machine's augmented-calldata buffer: %d bytes, capacity %d; want empty, capacity kept", len(e.aug), cap(e.aug))
	}
	if len(e.in) != 0 || cap(e.in) == 0 {
		t.Fatalf("released machine's input buffer: %d bytes, capacity %d; want empty, capacity kept", len(e.in), cap(e.in))
	}
	for i, entry := range e.memo.entries {
		if entry.used {
			t.Fatalf("released machine keeps memo entry %d (%d bytes)", i, entry.size)
		}
	}
	if e.memo.older != [sha3MemoSets]uint8{} {
		t.Fatalf("released machine keeps the memo's replacement order %v", e.memo.older)
	}
	next := New(newDiffState(nil), BlockContext{})
	if next.raa != nil || len(next.hint.MarkInput) != 0 || len(next.hint.PrevInput) != 0 {
		t.Fatalf("New handed out a machine with raa %v, hint %+v", next.raa, next.hint)
	}
	next.Release()

	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 200; round++ {
		size := []int{32, 64}[round%2]
		other := make([]byte, 128)
		rng.Read(other)
		mine := bytes.Clone(other)
		var memo sha3Memo
		for memo.slot(mine[36:36+size]) != memo.slot(other[36:36+size]) || bytes.Equal(mine, other) {
			rng.Read(mine[36 : 36+size]) // same length and slot, other content
		}
		prog := sha3Prog(36, byte(size), false)

		filler := New(newDiffState(prog), BlockContext{})
		filler.Call(CallContext{Contract: ctx.Contract, Input: other, Gas: 100_000})
		filler.Release()

		pooled := New(newDiffState(prog), BlockContext{})
		before := keccak.Invocations()
		got := pooled.Call(CallContext{Contract: ctx.Contract, Input: mine, Gas: 100_000})
		sponges := keccak.Invocations() - before
		fresh := (&EVM{state: newDiffState(prog)}).Call(CallContext{Contract: ctx.Contract, Input: mine, Gas: 100_000})
		if got.Err != nil || got.GasUsed != fresh.GasUsed || !bytes.Equal(got.ReturnData, fresh.ReturnData) ||
			got.ReturnWord() != types.Keccak(mine[36:36+size]).Word() || sponges != 1 {
			t.Fatalf("round %d: pooled machine returned (%v, gas %d, %x) in %d sponges, a fresh one (%v, gas %d, %x) in 1",
				round, got.Err, got.GasUsed, got.ReturnData, sponges, fresh.Err, fresh.GasUsed, fresh.ReturnData)
		}
		pooled.Release()
	}
}
