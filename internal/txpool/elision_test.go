package txpool

import (
	"bytes"
	"errors"
	"testing"

	"sereth/internal/keccak"
	"sereth/internal/p2p"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

func frozenSignedTx(key *wallet.Key, nonce uint64) *types.Transaction {
	sel := types.SelectorFor("set(bytes32[3])")
	tx := &types.Transaction{
		Nonce:    nonce,
		To:       types.Address{19: 0x42},
		GasPrice: 10,
		GasLimit: 300_000,
		Data:     types.EncodeCall(sel, types.FlagHead, types.Word{}, types.WordFromUint64(7)),
	}
	return key.SignTx(tx).Memoize()
}

// TestAdmitAdoptsFrozenInstance pins the cross-pool sharing contract: a
// memoized transaction is adopted by the pool as-is (the snapshot holds
// the very same instance, in every pool it is admitted to), while an
// unmemoized one is defensively copied — and mutable accessors keep
// returning unmemoized copies either way.
func TestAdmitAdoptsFrozenInstance(t *testing.T) {
	key := wallet.NewKey("elision-pool")
	frozen := frozenSignedTx(key, 0)

	poolA, poolB := New(), New()
	for _, p := range []*Pool{poolA, poolB} {
		got, err := p.Admit(frozen)
		if err != nil {
			t.Fatalf("admit frozen: %v", err)
		}
		if got != frozen {
			t.Fatal("frozen instance was copied instead of adopted")
		}
		snap, _ := p.Snapshot()
		if len(snap) != 1 || snap[0] != frozen {
			t.Fatal("snapshot does not share the adopted frozen instance")
		}
		// The mutable view must never leak the frozen cache.
		if cp := p.Get(frozen.Hash()); cp == frozen || cp.Memoized() {
			t.Fatal("Get leaked the frozen instance or its derived cache")
		}
		if pend := p.Pending(); len(pend) != 1 || pend[0] == frozen || pend[0].Memoized() {
			t.Fatal("Pending leaked the frozen instance or its derived cache")
		}
	}

	mutable := frozenSignedTx(key, 1).Copy() // unmemoized caller-owned instance
	got, err := poolA.Admit(mutable)
	if err != nil {
		t.Fatalf("admit mutable: %v", err)
	}
	if got == mutable {
		t.Fatal("caller-owned mutable instance must be copied on admission")
	}

	// Batch admission adopts the same way.
	frozen2 := frozenSignedTx(key, 2)
	admitted, errs := poolB.AdmitBatch([]*types.Transaction{frozen2, frozenSignedTx(key, 3).Copy()})
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("batch admit: %v %v", errs[0], errs[1])
	}
	if admitted[0] != frozen2 {
		t.Fatal("AdmitBatch copied a frozen instance")
	}
	if !admitted[1].Memoized() {
		t.Fatal("AdmitBatch must freeze the copied instance")
	}
}

// TestNthPoolAdmissionZeroKeccak is the headline elision assertion: once
// a gossiped transaction has been verified and admitted anywhere in the
// process, every further pool that admits the shared frozen instance —
// signature validation included — performs ZERO keccak invocations.
func TestNthPoolAdmissionZeroKeccak(t *testing.T) {
	reg := wallet.NewRegistry()
	key := wallet.NewKey("elision-npeer")
	reg.Register(key)
	validator := WithValidator(func(tx *types.Transaction) error { return reg.VerifyTx(tx) })

	frozen := frozenSignedTx(key, 0)

	// First pool: pays the one verification (the Sign recomputation).
	first := New(validator)
	before := keccak.Invocations()
	if _, err := first.Admit(frozen); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if n := keccak.Invocations() - before; n == 0 {
		t.Fatal("first admission should have verified the signature (≥1 keccak)")
	}

	// Nth pools: admission of the already-gossiped instance is a pure
	// cache hit — no identity hash, no sig digest, no verification.
	for i := 0; i < 5; i++ {
		nth := New(validator)
		before = keccak.Invocations()
		if _, err := nth.Admit(frozen); err != nil {
			t.Fatalf("pool %d admit: %v", i, err)
		}
		if n := keccak.Invocations() - before; n != 0 {
			t.Fatalf("pool %d admission: %d keccak invocations, want 0", i, n)
		}
	}

	// Batch path too.
	batchPool := New(validator)
	before = keccak.Invocations()
	if _, errs := batchPool.AdmitBatch([]*types.Transaction{frozen}); errs[0] != nil {
		t.Fatalf("batch admit: %v", errs[0])
	}
	if n := keccak.Invocations() - before; n != 0 {
		t.Fatalf("batch admission of frozen instance: %d keccak invocations, want 0", n)
	}
}

// TestVerifiedFlagDoesNotSurviveTamper pins forge-safety: mutating a
// copy of a verified transaction (the forger adversary's move) must
// re-verify and fail — the flag lives in the derived cache that Copy
// drops. It holds for every verified instance the process keeps: one
// memoized in place, a FrozenCopy, the instance a pool admits from a
// caller-owned copy and the one a peer receives when the network copies
// a caller-owned transaction. A Copy of any of them carries no digest:
// its identity hash is derived again.
func TestVerifiedFlagDoesNotSurviveTamper(t *testing.T) {
	reg := wallet.NewRegistry()
	key := wallet.NewKey("elision-tamper")
	reg.Register(key)
	sources := []struct {
		name     string
		instance func(nonce uint64) *types.Transaction
	}{
		{"memoized", func(nonce uint64) *types.Transaction { return frozenSignedTx(key, nonce) }},
		{"frozen copy", func(nonce uint64) *types.Transaction {
			return types.FrozenCopy(frozenSignedTx(key, nonce).Copy()).Memoize()
		}},
		{"admitted", func(nonce uint64) *types.Transaction {
			kept, err := New(WithValidator(reg.VerifyTx)).Admit(frozenSignedTx(key, nonce).Copy())
			if err != nil {
				t.Fatalf("admit: %v", err)
			}
			return kept
		}},
		{"gossiped", func(nonce uint64) *types.Transaction {
			return gossip(frozenSignedTx(key, nonce).Copy(), nil)
		}},
	}
	for i, src := range sources {
		frozen := src.instance(uint64(i))
		if !frozen.Memoized() {
			t.Fatalf("%s: the instance is not memoized", src.name)
		}
		if err := reg.VerifyTx(frozen); err != nil {
			t.Fatalf("%s: honest verify: %v", src.name, err)
		}
		if !frozen.SigVerifiedBy(reg) {
			t.Fatalf("%s: a verified instance does not carry the flag", src.name)
		}
		cp := frozen.Copy()
		if cp.Memoized() || cp.SigVerifiedBy(reg) {
			t.Fatalf("%s: copy kept the derived cache or the flag", src.name)
		}
		before := keccak.Invocations()
		if cp.Hash() != frozen.Hash() {
			t.Fatalf("%s: copy hashes differently", src.name)
		}
		if n := keccak.Invocations() - before; n != 1 {
			t.Fatalf("%s: a copy's identity hash cost %d digests, want 1 (derived again)", src.name, n)
		}
		if cp.Freeze().SigVerifiedBy(reg) {
			t.Fatalf("%s: a refrozen copy carries the flag", src.name)
		}

		forged := frozen.Copy()
		forged.Value = 1_000_000 // tampered content, stale signature
		if err := reg.VerifyTx(forged); err == nil {
			t.Fatalf("%s: tampered copy passed verification via a leaked cached flag", src.name)
		}
		// And the honest instance still passes from cache.
		before = keccak.Invocations()
		if err := reg.VerifyTx(frozen); err != nil {
			t.Fatalf("%s: honest re-verify: %v", src.name, err)
		}
		if n := keccak.Invocations() - before; n != 0 {
			t.Fatalf("%s: cached re-verify: %d keccak invocations, want 0", src.name, n)
		}
	}

	// The same through the pools: the origin verifies the private copy it
	// froze, so the instance it hands to gossip carries the flag and a
	// second pool on the registry admits it for nothing — while a copy of
	// that very instance with one calldata bit flipped starts from no
	// digest and no flag, and is refused.
	validator := WithValidator(reg.VerifyTx)
	origin, second := New(validator), New(validator)
	gossiped, err := origin.Admit(frozenSignedTx(key, 10).Copy())
	if err != nil {
		t.Fatalf("origin admit: %v", err)
	}
	if !gossiped.SigVerifiedBy(reg) {
		t.Fatal("the instance the origin gossips does not carry the verified flag")
	}
	flipped := gossiped.Copy()
	flipped.Data[len(flipped.Data)-1] ^= 1
	if flipped.Memoized() || flipped.SigVerifiedBy(reg) {
		t.Fatal("copy of the flagged instance kept its derived cache")
	}
	if _, err := second.Admit(flipped); !errors.Is(err, ErrRejected) {
		t.Fatalf("bit-flipped copy of a flagged instance: %v, want ErrRejected", err)
	}
	before := keccak.Invocations()
	if _, err := second.Admit(gossiped); err != nil {
		t.Fatalf("second pool admit: %v", err)
	}
	if n := keccak.Invocations() - before; n != 0 {
		t.Fatalf("second pool admitted the flagged instance for %d keccak invocations, want 0", n)
	}
}

// catcher is a network peer that keeps what it receives.
type catcher struct{ got []*types.Transaction }

func (c *catcher) HandleTx(_ p2p.PeerID, tx *types.Transaction) { c.got = append(c.got, tx) }
func (c *catcher) HandleBlock(p2p.PeerID, *types.Block)         {}
func (c *catcher) HandleBlockRequest(p2p.PeerID, uint64)        {}

// gossip broadcasts tx from one peer to another, calls edit (if any)
// on tx while the gossip is in flight, and returns what the other peer
// receives.
func gossip(tx *types.Transaction, edit func(*types.Transaction)) *types.Transaction {
	net := p2p.NewNetwork(p2p.Config{LatencyMs: 1})
	recv := &catcher{}
	net.Join(1, &catcher{})
	net.Join(2, recv)
	net.BroadcastTx(1, tx)
	if edit != nil {
		edit(tx)
	}
	net.Drain()
	return recv.got[0]
}

// TestCallerEditsReachNoKeptInstance is the copy differential: after a
// pool admits, or the network gossips, a caller-owned transaction, no
// edit the caller makes to its instance — calldata written in place,
// resliced or appended to, any field — changes the kept instance's bytes
// or its Hash and SigHash, cached or derived again from a copy.
func TestCallerEditsReachNoKeptInstance(t *testing.T) {
	reg := wallet.NewRegistry()
	key := wallet.NewKey("elision-edits")
	reg.Register(key)
	edits := []struct {
		name string
		edit func(*types.Transaction)
	}{
		{"calldata byte", func(tx *types.Transaction) { tx.Data[len(tx.Data)-1] ^= 1 }},
		{"calldata cleared", func(tx *types.Transaction) { clear(tx.Data) }},
		{"calldata resliced", func(tx *types.Transaction) { tx.Data = tx.Data[:4] }},
		{"calldata appended in place", func(tx *types.Transaction) { tx.Data = append(tx.Data[:8], 0xee) }},
		{"nonce", func(tx *types.Transaction) { tx.Nonce++ }},
		{"to", func(tx *types.Transaction) { tx.To[0] ^= 1 }},
		{"value", func(tx *types.Transaction) { tx.Value = 1 << 40 }},
		{"gas price", func(tx *types.Transaction) { tx.GasPrice *= 3 }},
		{"gas limit", func(tx *types.Transaction) { tx.GasLimit-- }},
		{"from", func(tx *types.Transaction) { tx.From[19] ^= 1 }},
		{"signature", func(tx *types.Transaction) { tx.Sig[0] ^= 1 }},
	}
	for i, e := range edits {
		own := frozenSignedTx(key, uint64(i)).Copy()
		wantBytes, wantHash, wantSig := own.EncodeRLP(), own.Hash(), own.SigHash()
		check := func(path string, kept *types.Transaction) {
			t.Helper()
			if !bytes.Equal(kept.EncodeRLP(), wantBytes) || kept.Hash() != wantHash || kept.SigHash() != wantSig {
				t.Errorf("%s, then the caller edits its %s: the kept instance changed", path, e.name)
			}
			if cp := kept.Copy(); cp.Hash() != wantHash || cp.SigHash() != wantSig {
				t.Errorf("%s, then the caller edits its %s: the kept bytes no longer derive the cached digests", path, e.name)
			}
		}

		p := New(WithValidator(reg.VerifyTx))
		kept, err := p.Admit(own)
		if err != nil {
			t.Fatalf("%s: admit: %v", e.name, err)
		}
		e.edit(own)
		check("Admit", kept)
		snap, _ := p.Snapshot()
		check("Admit (the snapshot's instance)", snap[0])

		own = frozenSignedTx(key, uint64(i)).Copy()
		check("BroadcastTx", gossip(own, e.edit))
	}
}

// TestAdmissionDigestBudget counts what admitting a caller-owned market
// transaction costs a pool with a signature validator, in digests: five
// when it is admitted (signing digest, signature, identity hash, mark,
// mark-check digest — each once; six while the copy was verified before
// it was frozen and memoizing derived the signing digest again), two
// when the signature is bad (no identity hash, no mark), none for an
// unknown signer, three for a duplicate. One by one and batched.
func TestAdmissionDigestBudget(t *testing.T) {
	reg := wallet.NewRegistry()
	key := wallet.NewKey("elision-budget")
	reg.Register(key)
	stranger := wallet.NewKey("elision-stranger")
	count := func(f func()) uint64 {
		before := keccak.Invocations()
		f()
		return keccak.Invocations() - before
	}
	cases := func(nonce uint64) (good, badSig, unknown *types.Transaction) {
		good = frozenSignedTx(key, nonce).Copy()
		badSig = frozenSignedTx(key, nonce+1).Copy()
		badSig.Data[len(badSig.Data)-1] ^= 1
		return good, badSig, frozenSignedTx(stranger, nonce).Copy()
	}

	p := New(WithValidator(reg.VerifyTx))
	good, badSig, unknown := cases(0)
	var admitted *types.Transaction
	var err error
	if n := count(func() { admitted, err = p.Admit(good) }); err != nil || n != 5 {
		t.Fatalf("admission: %d digests (want 5), err %v", n, err)
	}
	if mark, ok := admitted.Mark(); !ok || mark != types.NextMark(types.Word{}, types.WordFromUint64(7)) {
		t.Fatal("admitted instance does not carry its mark")
	}
	if n := count(func() { _, err = p.Admit(badSig) }); !errors.Is(err, ErrRejected) || n != 2 {
		t.Fatalf("bad signature: %d digests (want 2), err %v", n, err)
	}
	if n := count(func() { _, err = p.Admit(unknown) }); !errors.Is(err, ErrRejected) || n != 0 {
		t.Fatalf("unknown signer: %d digests (want 0), err %v", n, err)
	}
	if n := count(func() { _, err = p.Admit(good) }); !errors.Is(err, ErrAlreadyKnown) || n != 3 {
		t.Fatalf("duplicate: %d digests (want 3), err %v", n, err)
	}

	fresh, badSig, unknown := cases(10)
	var errs []error
	n := count(func() { _, errs = p.AdmitBatch([]*types.Transaction{fresh, badSig, unknown, good}) })
	if errs[0] != nil || !errors.Is(errs[1], ErrRejected) || !errors.Is(errs[2], ErrRejected) || !errors.Is(errs[3], ErrAlreadyKnown) {
		t.Fatalf("batch verdicts: %v", errs)
	}
	if n != 5+2+0+3 {
		t.Fatalf("batch of one good, one bad signature, one unknown signer, one duplicate: %d digests, want 10", n)
	}
}
