package sim

import (
	"errors"
	"fmt"

	"sereth/internal/asm"
	"sereth/internal/txpool"
	"sereth/internal/types"
)

// submitSet issues the owner's next price change through the primary
// client. The owner tracks its own mark chain locally (its transactions
// are sequentially consistent from its own thread, §II-C), so sets never
// need a remote view and all of them succeed — matching §V-A. Under
// GasPriceSpread the set bids above the buy band so overloaded pools do
// not evict the price authority.
func (s *Population) submitSet() error {
	price := types.WordFromUint64(uint64(10 + s.rng.Intn(90)))
	committedMark, err := s.clientStorage(0, asm.SlotMark)
	if err != nil {
		return fmt.Errorf("read mark for set %d: %w", s.sets.submitted, err)
	}
	flag := types.FlagChain
	if s.ownerMark == committedMark {
		flag = types.FlagHead
	}
	gasPrice := uint64(10)
	if s.cfg.GasPriceSpread > 0 {
		gasPrice = 10 + uint64(s.cfg.GasPriceSpread)
	}
	// The transaction SubmitSetPriced builds (see buildBuy).
	tx := s.owner.SignCall(types.Transaction{
		Nonce:    s.ownerNonce,
		To:       s.contract,
		GasPrice: gasPrice,
		GasLimit: 300_000,
	}, asm.SelSet, flag, s.ownerMark, price)
	if err := s.submitVia(0, tx); err != nil {
		if errors.Is(err, txpool.ErrPoolFull) {
			s.setsDropped++
			return nil
		}
		return fmt.Errorf("submit set %d: %w", s.sets.submitted, err)
	}
	s.ownerNonce++
	s.sets.submitted++
	s.ownerMark = types.NextMark(s.ownerMark, price)
	s.ownerValue = price
	s.tallies[tx.Hash()] = &s.sets
	return nil
}

// buildBuy constructs buy i's signed transaction from its client's best
// view: committed storage on a Geth client, the RAA/HMS READ-UNCOMMITTED
// view on a Sereth client (buyers round-robin over the client peers; the
// sequential-history check uses the single sender's locally-tracked
// chain instead of a remote view). The sender's nonce is read but NOT
// consumed — callers commit it via commitBuy once the transaction is
// accepted, so a refused buy never gaps the sender's sequence. Nothing
// mutates the transaction after signing, so it is built signed and
// memoized in one object (wallet.Key.SignCall): the client's pool adopts
// this instance, and its signing digest and hash are derived once.
func (s *Population) buildBuy(i int) (clientIdx, buyerIdx int, tx *types.Transaction, err error) {
	buyerIdx = i % len(s.buyers)
	key := &s.buyers[buyerIdx]
	clientIdx = buyerIdx % len(s.clients)
	if s.offline[s.clients[clientIdx].ID()] > 0 {
		// The buyer's usual client is down: fall back to the primary
		// client (which never goes down), as a real buyer would retry
		// against another endpoint.
		clientIdx = 0
	}

	var flag, mark, value types.Word
	var nonce uint64
	if s.cfg.SingleSender {
		// Sequential-history check (§V): the single sender knows its own
		// chain — real-time order = nonce order = block order, so its
		// locally-tracked (mark, value) is always exact.
		flag, mark, value = types.FlagChain, s.ownerMark, s.ownerValue
		nonce = s.ownerNonce
	} else {
		flag, mark, value, err = s.clientView(clientIdx, key.Address())
		if err != nil {
			return clientIdx, buyerIdx, nil, err
		}
		nonce = s.buyerNonce[buyerIdx]
	}
	gasPrice := uint64(10)
	if s.cfg.GasPriceSpread > 0 {
		gasPrice += uint64(s.rng.Intn(s.cfg.GasPriceSpread))
	}
	return clientIdx, buyerIdx, key.SignCall(types.Transaction{
		Nonce:    nonce,
		To:       s.contract,
		GasPrice: gasPrice,
		GasLimit: 300_000,
	}, asm.SelBuy, flag, mark, value), nil
}

// commitBuy records an accepted buy: the sender's nonce is consumed and
// the transaction tallied as its buyer's.
func (s *Population) commitBuy(buyerIdx int, tx *types.Transaction) {
	if s.cfg.SingleSender {
		s.ownerNonce++
	} else {
		s.buyerNonce[buyerIdx]++
	}
	s.buys[buyerIdx].submitted++
	s.tallies[tx.Hash()] = &s.buys[buyerIdx]
}

// submitBuy issues one buy through its client.
func (s *Population) submitBuy(i int) error {
	clientIdx, buyerIdx, tx, err := s.buildBuy(i)
	if err != nil {
		return fmt.Errorf("build buy %d: %w", i, err)
	}
	if err := s.submitVia(clientIdx, tx); err != nil {
		// A refused buy never existed anywhere, so its nonce must NOT be
		// consumed — a burned nonce would gap the sender's sequence and
		// make every later buy from this buyer unminable.
		if errors.Is(err, txpool.ErrPoolFull) {
			s.buysDropped++
			return nil
		}
		return fmt.Errorf("submit buy %d: %w", i, err)
	}
	s.commitBuy(buyerIdx, tx)
	return nil
}

// submitBurst issues the buys [start, start+BurstSize) as batched
// submissions: every buy is built against its client's view at the
// burst instant (buys carry no sets, so the views a per-tx loop would
// have read are identical), then each client's group ships through
// SubmitTxs — one pool-admission batch and one batched gossip envelope
// per client. Nonce and gas-price draws follow the per-tx path's order
// exactly.
func (s *Population) submitBurst(start int) error {
	end := start + s.cfg.BurstSize
	if end > s.cfg.Buys {
		end = s.cfg.Buys
	}
	groups := make([][]*types.Transaction, len(s.clients))
	for i := start; i < end; i++ {
		clientIdx, buyerIdx, tx, err := s.buildBuy(i)
		if err != nil {
			return fmt.Errorf("build buy %d: %w", i, err)
		}
		groups[clientIdx] = append(groups[clientIdx], tx)
		// The burst family runs on unbounded pools, so acceptance is
		// certain at build time and the nonce commits eagerly; a refusal
		// below aborts the run rather than un-counting.
		s.commitBuy(buyerIdx, tx)
	}
	for ci, txs := range groups {
		if len(txs) == 0 {
			continue
		}
		if err := s.clients[ci].SubmitTxs(txs); err != nil {
			// The burst family runs on unbounded pools; any refusal is a
			// configuration error, not backpressure to absorb.
			return fmt.Errorf("submit burst at %d: %w", start, err)
		}
	}
	return nil
}
