package txpool

import (
	"cmp"
	"slices"

	"sereth/internal/types"
)

// RemoveStale is the full sweep Settle replaced: it drops every
// transaction whose nonce is below the sender's current account nonce.
// TestSettleModel settles a twin pool with it.
func (p *Pool) RemoveStale(nonceOf func(types.Address) uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, tx := range p.byNonce {
		if key.nonce < nonceOf(key.from) {
			p.removeLocked(tx.Hash())
		}
	}
}

// BySender returns copies of each sender's pending transactions sorted by
// nonce, read off the nonce index.
func (p *Pool) BySender() map[types.Address][]*types.Transaction {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[types.Address][]*types.Transaction)
	for key, tx := range p.byNonce {
		out[key.from] = append(out[key.from], tx.Copy())
	}
	for _, txs := range out {
		slices.SortFunc(txs, func(a, b *types.Transaction) int { return cmp.Compare(a.Nonce, b.Nonce) })
	}
	return out
}
