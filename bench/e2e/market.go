package main

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"sereth/internal/asm"
	"sereth/internal/rpc"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// The paper's dynamic-pricing market: an owner re-prices with set, 25
// buyers read the READ-UNCOMMITTED view and buy at the price they saw.
const (
	marketBuyers    = 25
	marketSetEvery  = 5     // every 5th transaction is the owner's set
	marketBlockTxs  = 50    // A mines after every 50 transactions
	marketTxs       = 20000 // market-rpc; deep-pool is faster per tx and runs deepTxs
	deepTxs         = 25000
	marketGas       = 300_000
	marketPrice     = 10 // gas price of live traffic
	backlogTxs      = 10000
	backlogGasPrice = 1 // below live traffic, so the backlog is never mined
)

// market is both market workloads: market-rpc sends everything over HTTP
// JSON-RPC to peers with a store; deep-pool sends the same traffic
// in-process on top of a standing backlog, with no store.
type market struct {
	name    string
	overRPC bool
	deep    bool

	owner   *wallet.Key
	buyers  []*wallet.Key
	keys    []*wallet.Key
	txs     int      // per full repeat
	prices  []uint64 // one per set
	backlog []*types.Transaction
}

func (m *market) prepare(env *env) {
	rng := rand.New(rand.NewSource(env.seed))
	tag := fmt.Sprintf("%s-%d", m.name, env.seed)
	m.owner = wallet.NewKey("owner-" + tag)
	m.keys = []*wallet.Key{m.owner}
	for i := 0; i < marketBuyers; i++ {
		m.buyers = append(m.buyers, wallet.NewKey(fmt.Sprintf("buyer-%s-%d", tag, i)))
	}
	m.keys = append(m.keys, m.buyers...)
	m.txs = env.size(marketTxs, marketBlockTxs)
	if m.deep {
		m.txs = env.size(deepTxs, marketBlockTxs)
	}
	m.prices = make([]uint64, m.txs/marketSetEvery)
	for i := range m.prices {
		m.prices[i] = uint64(10 + rng.Intn(90))
	}
	if m.deep {
		m.prepareBacklog(env, rng, tag)
	}
}

// prepareBacklog signs the standing backlog: a chain of sets that hangs
// off a mark no block ever commits, each followed by four buys at its
// price, all at a gas price below the live traffic. The pools, the
// tracker and the miner carry them in every operation; no block has room
// for them.
func (m *market) prepareBacklog(env *env, rng *rand.Rand, tag string) {
	idleOwner := wallet.NewKey("idle-owner-" + tag)
	m.keys = append(m.keys, idleOwner)
	idle := make([]*wallet.Key, marketBuyers)
	for i := range idle {
		idle[i] = wallet.NewKey(fmt.Sprintf("idle-buyer-%s-%d", tag, i))
	}
	m.keys = append(m.keys, idle...)
	nonces := make([]uint64, len(idle))
	mark := types.Keccak([]byte("never-committed-" + tag)).Word()
	var value types.Word
	var ownerNonce uint64
	n := env.size(backlogTxs, marketSetEvery)
	for i := 0; i < n; i++ {
		if i%marketSetEvery == 0 {
			value = types.WordFromUint64(uint64(10 + rng.Intn(90)))
			m.backlog = append(m.backlog, idleOwner.SignTx(&types.Transaction{
				Nonce: ownerNonce, To: serethAddr, GasPrice: backlogGasPrice, GasLimit: marketGas,
				Data: types.EncodeCall(asm.SelSet, types.FlagChain, mark, value),
			}))
			ownerNonce++
			mark = types.NextMark(mark, value)
			continue
		}
		b := i % len(idle)
		m.backlog = append(m.backlog, idle[b].SignTx(&types.Transaction{
			Nonce: nonces[b], To: serethAddr, GasPrice: backlogGasPrice, GasLimit: marketGas,
			Data: types.EncodeCall(asm.SelBuy, types.FlagChain, mark, value),
		}))
		nonces[b]++
	}
}

func (m *market) repeat(env *env, fraction float64, tr *tracer) *result {
	res := newResult()
	cfg := clusterConfig{rpc: m.overRPC, gasLimit: marketBlockTxs * marketGas, seed: env.seed, keys: m.keys}
	if !m.deep {
		cfg.dataDir = env.repeatDir()
	}
	c, err := newCluster(cfg, tr)
	if err != nil {
		res.fail("boot cluster: %v", err)
		return res
	}
	defer c.destroy()
	pr := newProbes(c, res)
	if m.deep {
		// Prefill through C like live traffic, one gossip batch per 500.
		for i := 0; i < len(m.backlog); i += 500 {
			end := min(i+500, len(m.backlog))
			if err := c.nodes[peerSubmit].SubmitTxs(m.backlog[i:end]); err != nil {
				res.fail("prefill backlog: %v", err)
				return res
			}
			c.step()
		}
		pr.prefill(m.backlog)
	}

	n := max(1, int(float64(m.txs)*fraction)/marketBlockTxs) * marketBlockTxs
	var visible, views, commits []float64
	timedPhase(res, c, tr, func() int {
		visible, views, commits = m.drive(c, n, res, pr)
		return n
	})
	res.percentiles("submit_visible_ms", visible, 0.50, 0.99)
	res.percentiles("view_ms", views, 0.50, 0.99)
	res.percentiles("commit_ms", commits, 0.50, 0.90)
	c.settle(res, pr, n, asm.SelBuy)
	return res
}

// drive is the closed loop: one driver, one request in flight. It
// returns the latency samples in ms.
func (m *market) drive(c *cluster, n int, res *result, pr *probes) (visible, views, commits []float64) {
	tr := c.tr
	view, submit := m.inProcess(c)
	if m.overRPC {
		view, submit = m.viaRPC(c)
	}
	var ownerMark, committedMark, ownerValue types.Word
	var ownerNonce uint64
	buyerNonce := make([]uint64, len(m.buyers))
	sign := func(k *wallet.Key, nonce uint64, sel types.Selector, flag, mark, value types.Word) *types.Transaction {
		s := tr.begin(spSign, 0)
		defer tr.end(s)
		return k.SignTx(&types.Transaction{
			Nonce: nonce, To: serethAddr, GasPrice: marketPrice, GasLimit: marketGas,
			Data: types.EncodeCall(sel, flag, mark, value),
		})
	}
	for i := 0; i < n; i++ {
		if i%marketSetEvery == 0 {
			price := types.WordFromUint64(m.prices[i/marketSetEvery])
			flag := types.FlagChain
			if ownerMark == committedMark {
				flag = types.FlagHead
			}
			tx := sign(m.owner, ownerNonce, asm.SelSet, flag, ownerMark, price)
			res.attempted += 2
			t0 := time.Now()
			err := submit(tx, i)
			c.step()
			if err != nil {
				res.fail("set %d refused: %v", i, err)
				return
			}
			// Visible = a view read on ANOTHER peer returns the new mark.
			vflag, vmark, vvalue, err := view(i)
			visible = append(visible, ms(time.Since(t0)))
			ownerMark, ownerValue = types.NextMark(ownerMark, price), price
			ownerNonce++
			if err != nil || vflag != types.FlagChain || vmark != ownerMark || vvalue != ownerValue {
				res.fail("set %d not visible on peer B: err=%v", i, err)
			}
			pr.onSubmit(tx, true)
		} else {
			b := i % len(m.buyers)
			res.attempted += 2
			t0 := time.Now()
			flag, mark, value, err := view(i)
			views = append(views, ms(time.Since(t0)))
			if err != nil || mark != ownerMark || value != ownerValue {
				res.fail("buyer view %d is not the owner's latest set: err=%v", i, err)
			}
			tx := sign(m.buyers[b], buyerNonce[b], asm.SelBuy, flag, mark, value)
			err = submit(tx, i)
			c.step()
			if err != nil {
				res.fail("buy %d refused: %v", i, err)
				return
			}
			buyerNonce[b]++
			pr.onSubmit(tx, false)
		}
		if (i+1)%marketBlockTxs == 0 {
			pr.beforeMine()
			t0 := time.Now()
			b := c.mine(res)
			commits = append(commits, ms(time.Since(t0)))
			if b == nil {
				return
			}
			committedMark = ownerMark
			pr.afterMine(b)
		}
	}
	return
}

type (
	viewFn   func(id int) (flag, mark, value types.Word, err error)
	submitFn func(tx *types.Transaction, id int) error
)

func (m *market) inProcess(c *cluster) (viewFn, submitFn) {
	view := func(id int) (flag, mark, value types.Word, err error) {
		s := c.tr.begin(spViewAMV, id)
		flag, mark, value = c.nodes[peerView].ViewAMV(types.Address{}, serethAddr)
		c.tr.end(s)
		return
	}
	submit := func(tx *types.Transaction, id int) error {
		s := c.tr.begin(spSubmit, id)
		defer c.tr.end(s)
		return c.nodes[peerSubmit].SubmitTx(tx)
	}
	return view, submit
}

func (m *market) viaRPC(c *cluster) (viewFn, submitFn) {
	view := func(id int) (flag, mark, value types.Word, err error) {
		s := c.tr.begin(spRPCView, id)
		vr, err := c.view.View()
		c.tr.end(s)
		if err != nil {
			c.rpcErrors++
			return
		}
		return parseView(vr)
	}
	submit := func(tx *types.Transaction, id int) error {
		s := c.tr.begin(spSign, id)
		raw := tx.EncodeRLP()
		c.tr.end(s)
		s = c.tr.begin(spRPCSend, id)
		defer c.tr.end(s)
		_, err := c.submit.SendRawTransaction(raw)
		if err != nil {
			c.rpcErrors++
		}
		return err
	}
	return view, submit
}

func parseView(vr rpc.ViewResult) (flag, mark, value types.Word, err error) {
	for _, f := range []struct {
		hex string
		dst *types.Word
	}{{vr.Flag, &flag}, {vr.Mark, &mark}, {vr.Value, &value}} {
		b, derr := hex.DecodeString(strings.TrimPrefix(f.hex, "0x"))
		if derr != nil || len(b) != len(f.dst) {
			return flag, mark, value, fmt.Errorf("bad word %q on the rpc wire", f.hex)
		}
		copy(f.dst[:], b)
	}
	return
}
