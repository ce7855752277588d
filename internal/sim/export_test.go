package sim

import "sereth/internal/types"

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
	s.canonical(func(b *types.Block, _ types.Hash, _ []*types.Receipt) { blocks = append(blocks, b) })
	return res, blocks, nil
}
