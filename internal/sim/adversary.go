package sim

import (
	"fmt"

	"sereth/internal/asm"
	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// CensorPlan makes the first Miners miners (0 = all) exclude every
// transaction from the first Targets buyer accounts (0 = a quarter, at
// least one).
type CensorPlan struct {
	Miners  int
	Targets int
}

// CensorResult is the censor family's section of a Result. Excluded
// counts exclusion events (one per targeted pending transaction per block
// build); Submitted and Included track the targeted senders' buys end to
// end.
type CensorResult struct {
	Excluded  uint64
	Submitted int
	Included  int
}

type censor struct {
	passive
	s       *Population
	targets []types.Address // the first buyers' addresses
	left    int             // miners still to configure
	res     CensorResult
}

func newCensor(s *Population, plan CensorPlan) *censor {
	k := plan.Targets
	if k <= 0 {
		k = (len(s.buyers) + 3) / 4
	}
	c := &censor{s: s, left: plan.Miners}
	for i := range min(k, len(s.buyers)) {
		c.targets = append(c.targets, s.buyers[i].Address())
	}
	if c.left <= 0 {
		semantic, baseline, _ := s.cfg.population()
		c.left = semantic + baseline
	}
	return c
}

func (c *censor) configure(_ int, cfg *node.Config) error {
	if cfg.Miner != node.MinerNone && c.left > 0 {
		cfg.CensorTargets = c.targets
		c.left--
	}
	return nil
}

func (c *censor) report(res *Result) error {
	for _, n := range c.s.nodes {
		c.res.Excluded += n.CensorExcluded()
	}
	for _, t := range c.s.buys[:len(c.targets)] {
		c.res.Submitted += t.submitted
		c.res.Included += t.included
	}
	res.Censor = &c.res
	return nil
}

// Attacker kinds for AttackPlan.Kind.
const (
	// AdversaryForger gossips tampered replays, unknown-signer
	// mark-collision buys, and forged blocks — all of which honest peers
	// must reject at admission and import.
	AdversaryForger = "forger"
	// AdversaryFrontrun captures gossiped offers and replays stale ones
	// from its own funded identity at a gas-price premium (the §V-B
	// lost-update attack as a live actor).
	AdversaryFrontrun = "frontrun"
)

// AttackPlan joins one attacker peer of the given Kind after the
// population; it mounts its attack every IntervalMs (0 = 2000) of the
// submission window.
type AttackPlan struct {
	Kind       string
	IntervalMs uint64
}

// AttackResult is the attack family's section of a Result: what the
// attacker emitted and what the honest chain absorbed. BlocksAccepted
// must stay 0.
type AttackResult struct {
	TxsSent        int
	TxsIncluded    int
	TxsSucceeded   int
	BlocksSent     int
	BlocksAccepted int
}

// attack is the attack family: one attacker peer, and the tallies of
// its emissions on the canonical chain.
type attack struct {
	passive
	s           *Population
	plan        AttackPlan
	id          p2p.PeerID
	peer        attacker
	txs, blocks tally
	res         AttackResult
}

// attacker joins the network as a regular peer (so it sees honest
// gossip) and mounts its attack when the timeline fires. Attackers are
// fully deterministic: their choices derive from what they observed and
// how many attacks they have mounted, never from a clock or an
// un-namespaced RNG.
type attacker interface {
	p2p.Handler
	attack(at uint64)
}

// newAttack builds the attacker; a front-runner's funded key is
// registered before the registry is shared out to the population.
func newAttack(s *Population, plan AttackPlan, reg *wallet.Registry) (*attack, error) {
	a := &attack{s: s, plan: plan}
	switch plan.Kind {
	case AdversaryForger:
		a.peer = &forger{a: a, key: wallet.NewKey(fmt.Sprintf("forger-%d", s.cfg.Seed))}
	case AdversaryFrontrun:
		key := wallet.NewKey(fmt.Sprintf("frontrunner-%d", s.cfg.Seed))
		reg.Register(key)
		a.peer = &frontrunner{a: a, key: key}
	default:
		return nil, fmt.Errorf("sim: unknown adversary %q", plan.Kind)
	}
	return a, nil
}

// start joins the attacker under the first peer id after the nodes'.
func (a *attack) start() {
	a.id = p2p.PeerID(len(a.s.nodes) + 1)
	a.s.extras = append(a.s.extras, a.id)
	a.s.net.Join(a.id, a.peer)
}

func (a *attack) events(buyStart, span uint64) []event {
	interval := a.plan.IntervalMs
	if interval == 0 {
		interval = 2000
	}
	fire := func(at uint64) error { a.peer.attack(at); return nil }
	var evs []event
	for at := buyStart + interval; at <= buyStart+span; at += interval {
		evs = append(evs, event{at: at, fire: fire})
	}
	return evs
}

// sendTx memoizes and gossips an attack transaction, tallying it for the
// report.
func (a *attack) sendTx(tx *types.Transaction) {
	tx.Memoize()
	a.s.tallies[tx.Hash()] = &a.txs
	a.res.TxsSent++
	a.s.net.BroadcastTx(a.id, tx)
}

func (a *attack) sendBlock(blk *types.Block) {
	a.s.tallies[blk.Hash()] = &a.blocks
	a.res.BlocksSent++
	a.s.net.BroadcastBlock(a.id, blk)
}

func (a *attack) report(res *Result) error {
	a.res.TxsIncluded, a.res.TxsSucceeded = a.txs.included, a.txs.succeeded
	a.res.BlocksAccepted = a.blocks.included
	res.Attack = &a.res
	return nil
}

// forger is the mark-collision / replay / forged-block attacker. It
// holds an UNREGISTERED key, so every avenue must fail:
//
//   - tampered replays (captured tx, price bumped after signing) die at
//     pool admission on the signature check;
//   - mark-collision buys (reusing a victim's observed FPV under the
//     forger's own signature) die at admission on the unknown signer;
//   - forged blocks (captured valid txs under a fabricated state root on
//     the observed head) die at import verification on every peer.
//
// The chaos_forger scenario asserts TxsIncluded == 0 and BlocksAccepted
// == 0: admission and import are the two gates the paper's integrity
// argument leans on.
type forger struct {
	a   *attack
	key *wallet.Key // NOT in the registry

	captured []*types.Transaction // honest contract txs seen on the wire
	head     *types.Block         // highest block seen on the wire
	step     int
	nonce    uint64
}

func (f *forger) HandleTx(from p2p.PeerID, tx *types.Transaction) {
	if tx.To == f.a.s.contract && len(f.captured) < 512 {
		f.captured = append(f.captured, tx)
	}
}

func (f *forger) HandleBlock(from p2p.PeerID, block *types.Block) {
	if f.head == nil || block.Number() > f.head.Number() {
		f.head = block
	}
}

func (f *forger) HandleBlockRequest(from p2p.PeerID, fromNumber uint64) {}

// attack cycles through the three forgery avenues.
func (f *forger) attack(at uint64) {
	defer func() { f.step++ }()
	if len(f.captured) == 0 {
		return
	}
	victim := f.captured[(f.step/3)%len(f.captured)]
	switch f.step % 3 {
	case 0: // tampered replay: mutate a signed tx after signing
		tx := victim.Copy()
		tx.GasPrice += 7 // the signature no longer covers the content
		f.a.sendTx(tx)
	case 1: // mark-collision buy from an unknown signer
		fpv, err := victim.FPV()
		if err != nil {
			return
		}
		tx := f.key.SignCall(types.Transaction{
			Nonce:    f.nonce,
			To:       f.a.s.contract,
			GasPrice: 100, // outbid everyone: only the signer gate stops it
			GasLimit: 300_000,
		}, asm.SelBuy, types.FlagChain, fpv.PrevMark, fpv.Value)
		f.nonce++
		f.a.sendTx(tx)
	case 2: // forged block: a captured valid tx under fabricated roots
		if f.head == nil {
			return
		}
		header := &types.Header{
			ParentHash: f.head.Hash(),
			Number:     f.head.Number() + 1,
			StateRoot:  f.head.Header.StateRoot, // stale: replay cannot land here
			Coinbase:   f.key.Address(),
			GasLimit:   f.head.Header.GasLimit,
			Time:       at / 1000,
		}
		blk := &types.Block{Header: header, Txs: []*types.Transaction{victim}}
		header.TxRoot = blk.TxRoot()
		f.a.sendBlock(blk)
	}
}

// frontrunner is the examples/frontrunning lost-update attack promoted
// to a live scenario actor. It holds a REGISTERED key, watches the wire
// for sets (tracking the freshest mark it has seen) and buy offers, and
// replays captured offers whose mark has since gone stale — verbatim
// calldata, its own nonce and signature, triple the victim's gas price.
// Every replay is perfectly valid at admission; the RAA binding is what
// must defuse it at execution (the replayed FPV no longer matches the
// committed mark chain, so the buy is included but fails). Replays that
// race ahead of the pending set they front-run can still succeed — that
// is the residual (and legitimate-at-the-contract) price-change
// front-run the point reports as TxsSucceeded.
type frontrunner struct {
	a   *attack
	key *wallet.Key // registered: its txs pass every signature gate

	mark     types.Word // freshest mark observed in set gossip
	haveMark bool
	captured []capturedOffer
	nonce    uint64
}

type capturedOffer struct {
	data     []byte
	gasPrice uint64
	mark     types.Word // the offer's FPV.PrevMark
	replayed bool
}

func (f *frontrunner) HandleTx(from p2p.PeerID, tx *types.Transaction) {
	if tx.To != f.a.s.contract {
		return
	}
	sel, ok := tx.Selector()
	if !ok {
		return
	}
	switch sel {
	case asm.SelSet:
		if m, ok := tx.Mark(); ok {
			f.mark, f.haveMark = m, true
		}
	case asm.SelBuy:
		if tx.From == f.key.Address() {
			return // own replay echoed back by a relay
		}
		fpv, err := tx.FPV()
		if err != nil || len(f.captured) >= 512 {
			return
		}
		f.captured = append(f.captured, capturedOffer{
			data:     tx.Data,
			gasPrice: tx.GasPrice,
			mark:     fpv.PrevMark,
		})
	}
}

func (f *frontrunner) HandleBlock(from p2p.PeerID, block *types.Block)       {}
func (f *frontrunner) HandleBlockRequest(from p2p.PeerID, fromNumber uint64) {}

// attack replays the oldest un-replayed stale offer (one per event: a
// patient attacker is harder to filter than a flood).
func (f *frontrunner) attack(at uint64) {
	if !f.haveMark {
		return
	}
	for i := range f.captured {
		offer := &f.captured[i]
		if offer.replayed || offer.mark == f.mark {
			continue
		}
		offer.replayed = true
		tx := f.key.SignTx(&types.Transaction{
			Nonce:    f.nonce,
			To:       f.a.s.contract,
			GasPrice: offer.gasPrice*3 + 1,
			GasLimit: 300_000,
			Data:     offer.data, // verbatim: the stale FPV is the attack
		})
		f.nonce++
		f.a.sendTx(tx)
		return
	}
}
