package sim

import "sereth/internal/types"

// RunBlocks is Run that also returns the primary client's canonical
// chain above genesis, for the tests in package sim_test.
func RunBlocks(cfg ScenarioConfig) (Result, []*types.Block, error) {
	s, err := newScenario(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	defer s.cleanup()
	res, err := s.run()
	if err != nil {
		return Result{}, nil, err
	}
	c := s.clients[0].Chain()
	blocks := make([]*types.Block, 0, c.Height())
	for n := uint64(1); n <= c.Height(); n++ {
		blocks = append(blocks, c.BlockByNumber(n))
	}
	return res, blocks, nil
}
