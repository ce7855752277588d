package txpool

import "sereth/internal/types"

// RemoveStale is the full sweep Settle replaced, verbatim: it drops every
// transaction whose nonce is below the sender's current account nonce.
// TestSettleModel settles a twin pool with it.
func (p *Pool) RemoveStale(nonceOf func(types.Address) uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for sender, nonces := range p.bySender {
		floor := nonceOf(sender)
		for nonce, h := range nonces {
			if nonce < floor {
				p.removeLocked(h)
			}
		}
	}
}
