package wallet

import (
	"errors"
	"testing"

	"sereth/internal/keccak"
	"sereth/internal/types"
)

func sampleTx(data []byte) *types.Transaction {
	return &types.Transaction{
		Nonce:    1,
		To:       types.Address{19: 0xcc},
		GasPrice: 10,
		GasLimit: 100000,
		Data:     data,
	}
}

func TestKeyDeterminism(t *testing.T) {
	a := NewKey("alice")
	b := NewKey("alice")
	if a.Address() != b.Address() {
		t.Error("same seed, different address")
	}
	if NewKey("bob").Address() == a.Address() {
		t.Error("different seeds collide")
	}
	if a.Address() == (types.Address{}) {
		t.Error("zero address derived")
	}
}

func TestSignVerify(t *testing.T) {
	alice := NewKey("alice")
	reg := NewRegistry()
	reg.Register(alice)

	tx := alice.SignTx(sampleTx([]byte{1, 2, 3}))
	if err := reg.VerifyTx(tx); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
}

func TestVerifyRejectsTamperedData(t *testing.T) {
	// The RAA limitation (paper §III-D): modifying signed calldata must be
	// detected at validation.
	alice := NewKey("alice")
	reg := NewRegistry()
	reg.Register(alice)

	tx := alice.SignTx(sampleTx([]byte{1, 2, 3}))
	tampered := tx.Copy()
	tampered.Data[0] = 0xff
	if err := reg.VerifyTx(tampered); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered calldata accepted: %v", err)
	}
	// Tampering any other signed field is detected too.
	bumped := tx.Copy()
	bumped.Nonce++
	if err := reg.VerifyTx(bumped); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered nonce accepted: %v", err)
	}
}

func TestVerifyRejectsImpersonation(t *testing.T) {
	alice, eve := NewKey("alice"), NewKey("eve")
	reg := NewRegistry()
	reg.Register(alice)
	reg.Register(eve)

	// Eve signs but claims to be Alice.
	tx := eve.SignTx(sampleTx(nil))
	tx.From = alice.Address()
	if err := reg.VerifyTx(tx); !errors.Is(err, ErrBadSignature) {
		t.Errorf("impersonation accepted: %v", err)
	}
}

func TestVerifyUnknownSigner(t *testing.T) {
	alice := NewKey("alice")
	reg := NewRegistry()
	tx := alice.SignTx(sampleTx(nil))
	if err := reg.VerifyTx(tx); !errors.Is(err, ErrUnknownSigner) {
		t.Errorf("unknown signer accepted: %v", err)
	}
	reg.Register(alice)
	if err := reg.VerifyTx(tx); err != nil {
		t.Errorf("registered signer rejected: %v", err)
	}
}

func TestSignaturesDifferPerTx(t *testing.T) {
	alice := NewKey("alice")
	tx1 := alice.SignTx(sampleTx([]byte{1}))
	tx2 := alice.SignTx(sampleTx([]byte{2}))
	if tx1.Sig == tx2.Sig {
		t.Error("different payloads share a signature")
	}
}

// TestSignMemoizedDerivesTheSigningDigestOnce: SignMemoized yields the
// transaction SignTx then Memoize yield — signature, identity hash,
// derived data — at one digest fewer, the registry accepts it, and it
// refuses a transaction already frozen.
func TestSignMemoizedDerivesTheSigningDigestOnce(t *testing.T) {
	k := NewKey("alice")
	r := NewRegistry()
	r.Register(k)
	data := types.EncodeCall(types.SelectorFor("set(bytes32[3])"), types.FlagHead, types.ZeroWord, types.WordFromUint64(7))
	start := keccak.Invocations()
	want := k.SignTx(sampleTx(data)).Memoize()
	twice := keccak.Invocations() - start
	start = keccak.Invocations()
	got := k.SignMemoized(sampleTx(data))
	once := keccak.Invocations() - start
	if once != twice-1 {
		t.Errorf("SignMemoized derived %d digests, SignTx then Memoize %d; want one fewer", once, twice)
	}
	if !got.Memoized() || got.Sig != want.Sig || got.Hash() != want.Hash() || got.SigHash() != want.SigHash() {
		t.Fatal("SignMemoized and SignTx then Memoize disagree")
	}
	if gm, _ := got.Mark(); gm != types.NextMark(types.ZeroWord, types.WordFromUint64(7)) {
		t.Fatal("SignMemoized did not derive the mark")
	}
	if err := r.VerifyTx(got); err != nil {
		t.Fatal(err)
	}
	// A frozen transaction may keep a hash of its old signature: it is
	// not signed again.
	defer func() {
		if recover() == nil {
			t.Fatal("SignMemoized signed a frozen transaction")
		}
	}()
	k.SignMemoized(got)
}
