package chain

import "sereth/internal/types"

// keptPostRoots returns the state roots of the post states c keeps below
// its head, oldest first.
func (c *Chain) keptPostRoots() []types.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	roots := make([]types.Hash, len(c.posts))
	for i, post := range c.posts {
		roots[i] = post.Root()
	}
	return roots
}
