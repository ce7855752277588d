// Package wallet provides account key management and transaction signing.
//
// Substitution note: instead of secp256k1 ECDSA we use a
// deterministic keyed-Keccak scheme — pub = K(priv), addr = K(pub)[12:],
// sig = K(priv ‖ sigHash). Verification recomputes the signature from the
// registry of known public keys. The evaluation never attacks the
// signature scheme; what it relies on is (a) sender authentication and
// (b) tamper evidence for signed calldata (the RAA limitation, §III-D),
// both of which this scheme preserves deterministically.
package wallet

import (
	"errors"
	"fmt"
	"sync"

	"sereth/internal/keccak"
	"sereth/internal/types"
)

// Key is a signing identity.
type Key struct {
	priv [32]byte
	pub  [32]byte
	addr types.Address
}

// keyDomain prefixes every key name ahead of its digest.
var keyDomain = []byte("sereth-key:")

// NewKey derives a key deterministically from a seed string.
func NewKey(seed string) *Key {
	k := new(Key)
	k.Derive([]byte(seed))
	return k
}

// Derive makes k the key named name — priv = Keccak("sereth-key:" ‖
// name), pub = Keccak(priv), addr = Keccak(pub)[12:] — writing only k,
// so a caller can derive a population's keys into one slab it owns.
func (k *Key) Derive(name []byte) {
	k.priv = keccak.Sum256(keyDomain, name)
	k.pub = keccak.Sum256(k.priv[:])
	pubHash := keccak.Sum256(k.pub[:])
	copy(k.addr[:], pubHash[12:])
}

// Address returns the account address bound to the key.
func (k *Key) Address() types.Address { return k.addr }

// Sign computes the signature over a digest.
func (k *Key) Sign(digest types.Hash) types.Hash {
	return types.Hash(keccak.Sum256(k.priv[:], digest[:]))
}

// SignTx fills in From and Sig on the transaction.
func (k *Key) SignTx(tx *types.Transaction) *types.Transaction {
	tx.From = k.addr
	tx.Sig = k.Sign(tx.SigHash())
	return tx
}

// SignCall returns the call sel(args...) from k with tx's Nonce, To,
// Value, GasPrice and GasLimit, signed and memoized in one allocation
// (types.SignedCall): what SignTx and then Memoize yield, with the
// signing digest derived once. The transaction comes back frozen: a
// caller that edits what it signed uses SignTx.
func (k *Key) SignCall(tx types.Transaction, sel types.Selector, args ...types.Word) *types.Transaction {
	tx.From = k.addr
	return types.SignedCall(tx, k.Sign, sel, args...)
}

// Verification errors.
var (
	ErrUnknownSigner = errors.New("wallet: unknown signer address")
	ErrBadSignature  = errors.New("wallet: signature mismatch")
)

// Registry verifies signatures for a set of known accounts. In a real
// deployment verification is pairing-free public-key recovery; here the
// network's genesis registers every participating account, mirroring the
// paper's closed experimental topology.
type Registry struct {
	mu   sync.RWMutex
	keys map[types.Address]*Key
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return RegistryOf(nil) }

// RegistryOf returns a registry of every key in slab, its map sized for
// them once. It keeps pointers into slab: the caller writes no key of it
// again.
func RegistryOf(slab []Key) *Registry {
	r := &Registry{keys: make(map[types.Address]*Key, len(slab))}
	for i := range slab {
		r.keys[slab[i].addr] = &slab[i]
	}
	return r
}

// Register adds a key to the registry.
func (r *Registry) Register(k *Key) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[k.addr] = k
}

// VerifyTx checks that the transaction's signature matches its contents
// and claimed sender. A frozen transaction keeps the signing digest this
// derives and the verdict, so one this registry has already verified
// passes on a cached token compare: the origin's pool verifies the copy
// it froze and gossips, and every later pool and importer checks a
// pointer, not a keyed Keccak. That is sound because keys are only ever
// registered, never replaced, so a past verification can never be
// invalidated; mutable copies drop the derived cache (digest and flag
// with it), so a tampered transaction always re-verifies and fails.
func (r *Registry) VerifyTx(tx *types.Transaction) error {
	if tx.SigVerifiedBy(r) {
		return nil
	}
	r.mu.RLock()
	k, ok := r.keys[tx.From]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSigner, tx.From.Hex())
	}
	if k.Sign(tx.SigHash()) != tx.Sig {
		return ErrBadSignature
	}
	tx.MarkSigVerified(r)
	return nil
}
