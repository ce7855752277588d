package wallet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
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

// TestSignCallDerivesTheSigningDigestOnce: SignCall yields the
// transaction SignTx then Memoize yield — signature, identity hash,
// derived data — at one digest fewer, and the registry accepts it.
func TestSignCallDerivesTheSigningDigestOnce(t *testing.T) {
	k := NewKey("alice")
	r := NewRegistry()
	r.Register(k)
	sel, value := types.SelectorFor("set(bytes32[3])"), types.WordFromUint64(7)
	start := keccak.Invocations()
	want := k.SignTx(sampleTx(types.EncodeCall(sel, types.FlagHead, types.ZeroWord, value))).Memoize()
	twice := keccak.Invocations() - start
	start = keccak.Invocations()
	got := k.SignCall(*sampleTx(nil), sel, types.FlagHead, types.ZeroWord, value)
	once := keccak.Invocations() - start
	if once != twice-1 {
		t.Errorf("SignCall derived %d digests, SignTx then Memoize %d; want one fewer", once, twice)
	}
	if !got.Memoized() || got.Sig != want.Sig || got.Hash() != want.Hash() || got.SigHash() != want.SigHash() {
		t.Fatal("SignCall and SignTx then Memoize disagree")
	}
	if gm, _ := got.Mark(); gm != types.NextMark(types.ZeroWord, value) {
		t.Fatal("SignCall did not derive the mark")
	}
	if err := r.VerifyTx(got); err != nil {
		t.Fatal(err)
	}
}

// TestSignCallMatchesSignTx is the differential for the one-object
// path: over random fields and argument counts — calldata from a bare
// selector to past the 128 bytes a frozen transaction keeps inline —
// SignCall's transaction encodes, hashes, marks and signs exactly as
// the one SignTx then Memoize yield from the same fields.
func TestSignCallMatchesSignTx(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func() (w types.Word) {
		rng.Read(w[:])
		return w
	}
	for i := 0; i < 500; i++ {
		k := NewKey(fmt.Sprint("signer-", i%7))
		fields := types.Transaction{
			Nonce:    rng.Uint64() >> rng.Intn(64),
			Value:    rng.Uint64() >> rng.Intn(64),
			GasPrice: rng.Uint64() >> rng.Intn(64),
			GasLimit: rng.Uint64() >> rng.Intn(64),
			Sig:      types.Hash(word()), // ignored: SignCall signs
		}
		rng.Read(fields.To[:])
		var sel types.Selector
		rng.Read(sel[:])
		args := make([]types.Word, rng.Intn(6))
		for j := range args {
			args[j] = word()
		}
		if rng.Intn(2) == 0 && len(args) >= 2 {
			args[0] = types.FlagChain
		}
		ref := fields
		ref.Data = types.EncodeCall(sel, args...)
		want := k.SignTx(&ref).Memoize()
		got := k.SignCall(fields, sel, args...)
		if !bytes.Equal(got.EncodeRLP(), want.EncodeRLP()) || got.Sig != want.Sig ||
			got.SigHash() != want.SigHash() || got.Hash() != want.Hash() {
			t.Fatalf("case %d (%d args): SignCall's transaction encodes or signs differently", i, len(args))
		}
		gm, gok := got.Mark()
		wm, wok := want.Mark()
		gs, gsok := got.Selector()
		ws, wsok := want.Selector()
		if gm != wm || gok != wok || gs != ws || gsok != wsok || !got.Memoized() {
			t.Fatalf("case %d (%d args): SignCall's derived data differs", i, len(args))
		}
		gin, gd, _ := got.PrevHint()
		win, wd, _ := want.PrevHint()
		if !bytes.Equal(gin, win) || gd != wd {
			t.Fatalf("case %d (%d args): SignCall's mark-check digest differs", i, len(args))
		}
	}
}

// kept holds what an allocation count measures, so the compiler cannot
// keep it on the stack.
var kept *types.Transaction

// TestSignCallIsOneObject: building and signing a client's set or buy —
// the transaction, its calldata and its derived block — is one
// allocation.
func TestSignCallIsOneObject(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	k := NewKey("alice")
	set, buy := types.SelectorFor("set(bytes32[3])"), types.SelectorFor("buy(bytes32[3])")
	fields := *sampleTx(nil)
	prev, value := types.WordFromUint64(3), types.WordFromUint64(7)
	for _, sel := range []types.Selector{set, buy} {
		if got := testing.AllocsPerRun(100, func() {
			fields.Nonce++
			kept = k.SignCall(fields, sel, types.FlagChain, prev, value)
		}); got != 1 {
			t.Errorf("selector %x: SignCall allocates %v times, want 1", sel, got)
		}
	}
}

// TestDeriveMatchesNewKey: a key derived into a caller's slot from a
// byte name is the key NewKey derives from that name as a string, and
// both are the scheme's digests written out — for the owner and every
// buyer name a Figure-2 population uses at seeds 0–99.
func TestDeriveMatchesNewKey(t *testing.T) {
	for seed := 0; seed < 100; seed++ {
		names := []string{fmt.Sprintf("owner-%d", seed)}
		for i := 0; i < 25; i++ {
			names = append(names, fmt.Sprintf("buyer-%d-%d", seed, i))
		}
		for _, name := range names {
			var got Key
			got.Derive([]byte(name))
			var want Key
			want.priv = keccak.Sum256([]byte("sereth-key:" + name))
			want.pub = keccak.Sum256(want.priv[:])
			pubHash := keccak.Sum256(want.pub[:])
			copy(want.addr[:], pubHash[12:])
			if got != want || *NewKey(name) != want {
				t.Fatalf("%s: Derive and NewKey disagree with the scheme", name)
			}
		}
	}
}

// TestDeriveAllocatesNothing: deriving into a slot the caller owns, from
// a name on the stack, allocates nothing; a registry of a slab is one
// map sized for it, holding every slot by address.
func TestDeriveAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	var k Key
	if got := testing.AllocsPerRun(100, func() {
		var name [16]byte
		k.Derive(append(name[:0], "buyer-7-3"...))
	}); got != 0 {
		t.Errorf("Derive allocates %v times, want 0", got)
	}
	slab := make([]Key, 26)
	for i := range slab {
		slab[i].Derive([]byte(fmt.Sprint("buyer-7-", i)))
	}
	r := RegistryOf(slab)
	for i := range slab {
		tx := slab[i].SignTx(sampleTx(nil))
		if err := r.VerifyTx(tx); err != nil || r.keys[slab[i].addr] != &slab[i] {
			t.Fatalf("slot %d: not registered by its pointer (%v)", i, err)
		}
	}
}
