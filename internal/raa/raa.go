// Package raa implements Runtime Argument Augmentation (paper §III-D):
// an in-process data service the EVM interpreter consults before
// executing a registered read-only call, writing fresh external data
// directly into the call's formal arguments. The flagship provider serves
// Hash-Mark-Set views; arbitrary providers make RAA a lightweight
// blockchain-oracle replacement.
package raa

import (
	"sync"

	"sereth/internal/evm"
	"sereth/internal/hms"
	"sereth/internal/types"
)

// Provider rewrites the argument words of one registered function in
// place: args is the argument area of a copy of the calldata,
// and only words the caller supplied may be written (the "data types
// must match" restriction of §III-D, kept by SetWord). Returning false
// leaves the call unmodified, whatever was written.
type Provider interface {
	Provide(contract types.Address, args []byte) bool
}

// ProviderFunc adapts a function to the Provider interface.
type ProviderFunc func(contract types.Address, args []byte) bool

// Provide implements Provider.
func (f ProviderFunc) Provide(contract types.Address, args []byte) bool {
	return f(contract, args)
}

// SetWord writes w as argument word i of args. It reports false, writing
// nothing, when the caller's argument list has no word i.
func SetWord(args []byte, i int, w types.Word) bool {
	if (i+1)*types.WordLength > len(args) {
		return false
	}
	copy(args[i*types.WordLength:], w[:])
	return true
}

type registration struct {
	contract types.Address
	selector types.Selector
}

// Service routes augmentation requests to providers registered per
// (contract, selector). It implements evm.RAAProvider and is safe for
// concurrent use.
type Service struct {
	mu        sync.RWMutex
	providers map[registration]Provider
}

var _ evm.RAAProvider = (*Service)(nil)

// NewService returns an empty RAA service.
func NewService() *Service {
	return &Service{providers: make(map[registration]Provider)}
}

// Register installs a provider for calls to contract with the given
// selector, replacing any previous registration.
func (s *Service) Register(contract types.Address, selector types.Selector, p Provider) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.providers[registration{contract, selector}] = p
}

// Unregister removes a registration.
func (s *Service) Unregister(contract types.Address, selector types.Selector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.providers, registration{contract, selector})
}

// Augment implements evm.RAAProvider. The interpreter invokes it for
// read-only calls only. The provider writes its words straight into the
// copy of the calldata Augment makes in dst's storage; input itself is
// never written.
func (s *Service) Augment(dst []byte, contract types.Address, input []byte) ([]byte, bool) {
	sel, ok := types.CallSelector(input)
	if !ok {
		return nil, false
	}
	s.mu.RLock()
	p, ok := s.providers[registration{contract, sel}]
	s.mu.RUnlock()
	if !ok {
		return nil, false
	}
	out := append(dst[:0], input...)
	if !p.Provide(contract, out[types.SelectorLength:]) {
		return nil, false
	}
	return out, true
}

// PoolSource supplies the current pending transactions (the TxPool view
// the HMS provider serializes).
type PoolSource interface {
	Pending() []*types.Transaction
}

// HMSProvider serves READ-UNCOMMITTED views of the tracked variable: the
// replacement tuple is (flag, mark, value) — exactly the RAA layout the
// Sereth contract's get/mark functions expect.
type HMSProvider struct {
	tracker *hms.Tracker
	pool    PoolSource
}

var _ Provider = (*HMSProvider)(nil)

// NewHMSProvider binds a tracker to a pool source.
func NewHMSProvider(tracker *hms.Tracker, pool PoolSource) *HMSProvider {
	return &HMSProvider{tracker: tracker, pool: pool}
}

// Provide implements Provider. A tracker attached to the node's pool
// serves its incrementally maintained view (O(1) when the pool is
// unchanged); otherwise the view is recomputed from a pool snapshot.
func (h *HMSProvider) Provide(_ types.Address, args []byte) bool {
	if len(args) < 3*types.WordLength {
		return false
	}
	view := h.tracker.ViewOrSnapshot(h.pool.Pending)
	return SetWord(args, 0, view.Flag) && SetWord(args, 1, view.AMV.Mark) && SetWord(args, 2, view.AMV.Value)
}

// RegisterHMS wires an HMS tracker into the service for the Sereth
// contract's read functions (get and mark).
func RegisterHMS(s *Service, tracker *hms.Tracker, pool PoolSource, selectors ...types.Selector) {
	p := NewHMSProvider(tracker, pool)
	for _, sel := range selectors {
		s.Register(tracker.Config().Contract, sel, p)
	}
}

// StaticProvider always returns a fixed word tuple; useful as a test
// stand-in and for constant oracle feeds.
type StaticProvider struct {
	Words []types.Word
}

var _ Provider = StaticProvider{}

// Provide implements Provider.
func (p StaticProvider) Provide(_ types.Address, args []byte) bool {
	for i, w := range p.Words {
		if !SetWord(args, i, w) {
			return false
		}
	}
	return true
}
