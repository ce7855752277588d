package sim

import "sereth/internal/types"

// canonical calls visit for every block of the primary client's
// canonical chain above genesis, with its receipts: receipts[i] is the
// outcome of block.Txs[i].
func (s *Population) canonical(visit func(block *types.Block, hash types.Hash, receipts []types.Receipt)) {
	c := s.clients[0].Chain()
	// A block's hash is its child's ParentHash and the chain keeps the
	// head's: the walk hashes no header.
	hashes := make([]types.Hash, c.Height()+1)
	hashes[len(hashes)-1] = c.HeadHash()
	for n := len(hashes) - 1; n > 1; n-- {
		hashes[n-1] = c.BlockByNumber(uint64(n)).Header.ParentHash
	}
	for n := 1; n < len(hashes); n++ {
		visit(c.BlockByNumber(uint64(n)), hashes[n], c.Receipts(hashes[n]))
	}
}

// RunBlocks is Run that also returns the primary client's canonical
// chain above genesis, for the tests in package sim_test.
func RunBlocks(cfg ScenarioConfig) (Result, []*types.Block, error) {
	s, err := New(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	res, err := s.Finish()
	if err != nil {
		return Result{}, nil, err
	}
	var blocks []*types.Block
	s.canonical(func(b *types.Block, _ types.Hash, _ []types.Receipt) { blocks = append(blocks, b) })
	return res, blocks, nil
}
