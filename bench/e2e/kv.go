package main

import (
	"fmt"
	"math/rand"
	"time"

	"sereth/internal/asm"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// Conflict-sparse puts on the KV store contract: the execution stack
// (processor, EVM, statedb, trie, keccak, store) does nearly all the
// work; RPC does none and HMS sees only transactions it does not manage.
const (
	kvSenders  = 200
	kvKeys     = 50000 // working set the puts draw from
	kvTxs      = 30000
	kvBatch    = 50  // transactions per SubmitTxs call
	kvBlockTxs = 250 // A mines after every 250 transactions
	kvGas      = 100_000
)

type kvBlocks struct {
	keys []*wallet.Key
	txs  []*types.Transaction // pre-signed, in submission order
}

func (w *kvBlocks) prepare(env *env) {
	rng := rand.New(rand.NewSource(env.seed))
	for i := 0; i < kvSenders; i++ {
		w.keys = append(w.keys, wallet.NewKey(fmt.Sprintf("kv-sender-%d-%d", env.seed, i)))
	}
	w.txs = make([]*types.Transaction, env.size(kvTxs, kvBlockTxs))
	for i := range w.txs {
		// Round-robin senders, so transaction i carries nonce i/kvSenders
		// and any prefix of the list is a valid workload.
		w.txs[i] = w.keys[i%kvSenders].SignTx(&types.Transaction{
			Nonce: uint64(i / kvSenders), To: kvAddr, GasPrice: 10, GasLimit: kvGas,
			Data: types.EncodeCall(asm.SelPut,
				types.WordFromUint64(uint64(rng.Intn(kvKeys))),
				types.WordFromUint64(rng.Uint64()|1)),
		})
	}
}

func (w *kvBlocks) repeat(env *env, fraction float64, tr *tracer) *result {
	res := newResult()
	c, err := newCluster(clusterConfig{
		dataDir: env.repeatDir(), gasLimit: kvBlockTxs * kvGas, seed: env.seed, keys: w.keys,
	}, tr)
	if err != nil {
		res.fail("boot cluster: %v", err)
		return res
	}
	defer c.destroy()
	pr := newProbes(c, res)

	n := max(1, int(float64(len(w.txs))*fraction)/kvBlockTxs) * kvBlockTxs
	var commits []float64
	timedPhase(res, c, tr, func() int {
		for i := 0; i < n; i += kvBatch {
			batch := w.txs[i : i+kvBatch]
			// Alternate the two client peers, like users spread over them.
			via := c.nodes[peerView+(i/kvBatch)%2]
			res.attempted++
			s := tr.begin(spSubmit, i)
			err := via.SubmitTxs(batch)
			tr.end(s)
			c.step()
			if err != nil {
				res.fail("batch at %d refused: %v", i, err)
				return n
			}
			for _, tx := range batch {
				pr.onSubmit(tx, false)
			}
			if (i+kvBatch)%kvBlockTxs == 0 {
				pr.beforeMine()
				t0 := time.Now()
				b := c.mine(res)
				commits = append(commits, ms(time.Since(t0)))
				if b == nil {
					return n
				}
				pr.afterMine(b)
			}
		}
		return n
	})
	res.percentiles("commit_ms", commits, 0.50, 0.90)

	// No buys here; η is the same ratio over the puts, which all succeed.
	c.settle(res, pr, n, asm.SelPut)
	return res
}
