// Package sim is the evaluation harness: it reconstructs the paper's
// experiments (§V) on the simulated network. A ScenarioConfig builds a
// Population — by default the paper's 3-peer rig (one semantic miner,
// one baseline miner, one client), generalizable to N miners and M
// clients over an arbitrary topology — that replays the dynamic-pricing
// workload and measures transaction efficiency η = succeeded/included
// over the buys, exactly the quantity Figure 2 plots against the
// buy:set ratio. Submissions, block production and network delivery are
// all driven through one unified event timeline: New builds the
// population, Step runs it to a model time, Finish runs the rest and
// returns the Result. Run is New, then Finish; a soak steps the same
// population and samples it between steps.
package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// ScenarioConfig parameterizes one experiment run.
type ScenarioConfig struct {
	Name string
	Seed int64

	// Workload shape.
	Buys             int    // buy transactions per run (paper: 100)
	Sets             int    // set transactions spread over the buys
	SubmitIntervalMs uint64 // per-buy submission interval (paper: 1000)
	Buyers           int    // distinct buyer accounts, round-robin
	// BurstSize > 1 batches buy submissions: each group of BurstSize
	// consecutive buys is built against the submitting client's view at
	// the group's start instant and shipped through node.SubmitTxs — one
	// pool-admission batch and ONE batched gossip envelope
	// (p2p.BroadcastTxs) per client per burst, instead of per-tx
	// admission and gossip. The burst family assumes unbounded pools: a
	// refused submission aborts the run.
	BurstSize int

	// Chain and network shape.
	BlockIntervalMs uint64 // mean block interval (paper regime: 15000)
	// PoissonBlocks draws each interval from an exponential distribution
	// with the above mean, clamped to [mean/4, 4*mean] — the variability
	// of proof-of-work block times that produces the paper's transient
	// backlogs and multi-block-stale views (§V-A). False = fixed cadence.
	PoissonBlocks   bool
	BlockGasLimit   uint64  // controls block capacity
	GossipLatencyMs uint64  // one-hop gossip delay
	DropRate        float64 // gossip loss probability
	// ReorderWindow is the baseline miner's same-price reordering noise
	// in transaction positions (gossip/heap skew); 0 = FIFO.
	ReorderWindow int

	// Population shape. Zero values select the paper rig: one semantic
	// miner, one baseline miner, one client peer.
	SemanticMiners int
	BaselineMiners int
	Clients        int
	// Topology selects the gossip graph: "mesh" (default, one-hop full
	// mesh), "ring", or "dregular" (random Degree-regular with
	// multi-hop relay and duplicate suppression).
	Topology string
	Degree   int

	// Mempool shape (overload scenarios). PoolCapacity bounds every
	// node's pending pool; EvictOnFull displaces the oldest
	// lowest-priced resident instead of rejecting newcomers.
	PoolCapacity int
	EvictOnFull  bool
	// GasPriceSpread > 0 draws each buy's gas price from
	// [10, 10+spread) so overloaded pools have an eviction gradient;
	// sets then bid 10+spread to stay resident.
	GasPriceSpread int

	// Client/miner configuration (the three Figure-2 lines).
	ClientMode node.Mode
	// SemanticFraction is the probability each block is produced by a
	// semantic miner instead of a baseline miner (participation
	// ablation; 0 = pure baseline, 1 = pure semantic mining).
	SemanticFraction float64
	// ExtendHeads enables the HMS orphan-recovery extension (ablation).
	ExtendHeads bool
	// SingleSender runs the §V sequential-history check: every
	// transaction from one address, so nonce order = block order.
	SingleSender bool
	// DrainBlocks bounds the extra block intervals mined after the last
	// submission so the backlog clears.
	DrainBlocks int

	// Faults configures the fault families (chaos and crash): each plan
	// set is one actor in the run. The zero value is the honest run.
	Faults Faults

	// ParallelExec routes every node's block execution through the
	// optimistic parallel processor (chain.ParallelProcessor) with a
	// deterministic 4-worker pool and threshold 1, so even small sim
	// bodies exercise the speculate/validate/merge path. Execution is
	// bit-identical to the sequential processor by construction (and by
	// the differential suite), so every measured η is unaffected.
	ParallelExec bool

	// RPCClients publishes every client peer behind a real HTTP JSON-RPC
	// endpoint (rpc.Server on a loopback listener): view reads travel
	// as sereth_view / eth_getStorageAt calls and submissions as
	// eth_sendRawTransaction, exercising the full serving tier
	// in-process. The round trip returns the same view words and admits
	// the same signed transactions, so every measured η is unaffected.
	// Burst submissions (BurstSize > 1) keep the in-process batched
	// pipeline — JSON-RPC has no batch submit. A crash plan refuses it
	// (ErrCrashWithRPC).
	RPCClients bool

	// Persist backs every node's chain with its own in-memory
	// store.Store, so each adopted block flushes dirty state and block
	// records exactly as a disk-backed deployment would, and each peer
	// executes every block itself. Neither changes execution, so every
	// measured η is unaffected; a run fails unless each store reopens at
	// its peer's head.
	Persist bool
}

// Defaults returns the shared experiment parameterization (the private
// Ethereum-like regime of §V): 1 tx/s submissions, 15 s blocks, block
// capacity slightly below the arrival rate so a realistic backlog forms.
func Defaults() ScenarioConfig {
	return ScenarioConfig{
		Buys:             100,
		Sets:             20,
		SubmitIntervalMs: 1000,
		Buyers:           25,
		BlockIntervalMs:  15000,
		PoissonBlocks:    true,
		BlockGasLimit:    5_400_000, // 18 tx of 300k gas per block
		GossipLatencyMs:  250,
		ReorderWindow:    4,
		ClientMode:       node.ModeGeth,
		SemanticFraction: 0,
		DrainBlocks:      40,
	}
}

// GethUnmodified configures the baseline line of Figure 2.
func GethUnmodified(sets int, seed int64) ScenarioConfig {
	cfg := Defaults()
	cfg.Name = "geth_unmodified"
	cfg.Sets = sets
	cfg.Seed = seed
	cfg.ClientMode = node.ModeGeth
	return cfg
}

// SerethClient configures the HMS-without-miner-assistance line.
func SerethClient(sets int, seed int64) ScenarioConfig {
	cfg := Defaults()
	cfg.Name = "sereth_client"
	cfg.Sets = sets
	cfg.Seed = seed
	cfg.ClientMode = node.ModeSereth
	return cfg
}

// SemanticMining configures the miner-assisted line.
func SemanticMining(sets int, seed int64) ScenarioConfig {
	cfg := Defaults()
	cfg.Name = "semantic_mining"
	cfg.Sets = sets
	cfg.Seed = seed
	cfg.ClientMode = node.ModeSereth
	cfg.SemanticFraction = 1
	return cfg
}

// Overload configures the sustained-overload family: submissions arrive
// at a multiple of block capacity into bounded mempools with the
// evict-lowest policy, so the run exercises eviction of pending HMS
// parents — the §V-C orphaning mechanism under resource pressure.
func Overload(seed int64) ScenarioConfig {
	cfg := Defaults()
	cfg.Name = "overload"
	cfg.Seed = seed
	cfg.Buys = 200
	cfg.Sets = 20
	cfg.SubmitIntervalMs = 250 // 4 tx/s against ~1.2 tx/s block capacity
	cfg.ClientMode = node.ModeSereth
	cfg.PoolCapacity = 48
	cfg.EvictOnFull = true
	cfg.GasPriceSpread = 10
	cfg.DrainBlocks = 60
	return cfg
}

// Burst configures the burst-submission family: buys arrive in groups
// of BurstSize shipped through the batched admission + gossip pipeline
// (txpool.AdmitBatch, p2p.BroadcastTxs) instead of one envelope per
// transaction. At BurstSize 1 it degenerates to the sereth_client
// per-tx schedule, which anchors the sweep's baseline row.
func Burst(seed int64) ScenarioConfig {
	cfg := Defaults()
	cfg.Name = "burst"
	cfg.Seed = seed
	cfg.Sets = 20
	cfg.ClientMode = node.ModeSereth
	cfg.BurstSize = 10
	return cfg
}

// Result aggregates one scenario run.
type Result struct {
	Config ScenarioConfig

	BuysSubmitted int
	BuysIncluded  int
	BuysSucceeded int
	// BuysDropped counts buys the submitting client's own full pool
	// refused (overload scenarios).
	BuysDropped   int
	SetsSubmitted int
	SetsIncluded  int
	SetsSucceeded int
	SetsDropped   int
	Blocks        int
	DurationS     float64

	// Evicted sums evict-lowest displacements across every node's pool.
	Evicted uint64
	// MsgsSent / MsgsDropped are network delivery attempts and losses.
	MsgsSent    uint64
	MsgsDropped uint64

	// BlocksMined counts every block produced anywhere; the excess over
	// Blocks (the primary client's canonical height) is BlocksOrphaned —
	// mined but not canonical, the cost of partitions and gossip loss.
	BlocksMined    int
	BlocksOrphaned int
	// Converged reports whether every online peer ended on the primary
	// client's exact head (hash, not just height).
	Converged bool

	// One section per fault family, filled by its actor: nil when the
	// family was not in the run.
	Churn     *ChurnResult
	Partition *PartitionResult
	Links     *LinkResult
	Crash     *CrashResult
	Censor    *CensorResult
	Attack    *AttackResult
}

// Efficiency returns η over the buys, the Figure-2 y-axis.
func (r Result) Efficiency() float64 {
	if r.BuysIncluded == 0 {
		return 0
	}
	return float64(r.BuysSucceeded) / float64(r.BuysIncluded)
}

// SetEfficiency returns η over the sets (the paper reports all sets
// succeed, §V-A).
func (r Result) SetEfficiency() float64 {
	if r.SetsIncluded == 0 {
		return 1
	}
	return float64(r.SetsSucceeded) / float64(r.SetsIncluded)
}

// StateTps returns state throughput T_state = η·T_raw.
func (r Result) StateTps() float64 {
	if r.DurationS <= 0 {
		return 0
	}
	return float64(r.BuysSucceeded+r.SetsSucceeded) / r.DurationS
}

// Run executes the scenario and returns its result.
func Run(cfg ScenarioConfig) (Result, error) {
	p, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return p.Finish()
}

type eventKind int

const (
	evSet eventKind = iota + 1
	evBuy
	evBurst // a batch of BurstSize consecutive buys starting at idx
	evBlock
)

// event is one instant of the timeline: a workload event of its kind,
// or an actor's, which carries fire instead.
type event struct {
	at   uint64
	kind eventKind
	idx  int
	fire func(at uint64) error
}

// Population is one scenario's peers on their gossip network with the
// timeline that drives them, from one goroutine.
type Population struct {
	cfg ScenarioConfig
	rng *rand.Rand
	tl  *timeline
	err error // the error that stopped the population

	net   *p2p.Network
	nodes []*node.Node // all peers, by index
	// The roles, views of nodes: semantic-mining, baseline-mining and
	// non-mining client peers.
	semantic, baseline, clients []*node.Node
	rpc                         *rpcFrontend // serving tier (nil unless RPCClients)

	contract types.Address
	owner    *wallet.Key
	buyers   []*wallet.Key

	ownerNonce  uint64
	buyerNonce  []uint64
	ownerMark   types.Word // owner's locally-tracked chain of marks
	ownerValue  types.Word // value of the owner's latest set
	ownerSets   int
	buysSent    int
	buysDropped int
	setsDropped int
	buyHashes   map[types.Hash]bool
	setHashes   map[types.Hash]bool
	blocksMined int

	// actors are the run's fault families (none in an honest run).
	actors []actor
	// offline counts, per peer, the actors holding it down; extras are
	// peers an actor joined that are not nodes (an attacker).
	offline map[p2p.PeerID]int
	extras  []p2p.PeerID
}

// population resolves the configured peer counts, defaulting to the
// paper's 3-peer rig when no population is specified.
func (cfg ScenarioConfig) population() (semantic, baseline, clients int) {
	semantic, baseline, clients = cfg.SemanticMiners, cfg.BaselineMiners, cfg.Clients
	if semantic == 0 && baseline == 0 {
		semantic, baseline = 1, 1
	}
	if clients == 0 {
		clients = 1
	}
	return semantic, baseline, clients
}

// expendable lists, ascending, the node indexes a fault family may take
// down: every peer but the first miner of each kind (the population
// must keep mining on both draw paths) and the primary client (the
// measurement point and set submitter).
func (cfg ScenarioConfig) expendable() []int {
	semantic, baseline, clients := cfg.population()
	var out []int
	for i := 0; i < semantic+baseline+clients; i++ {
		if i != 0 && i != semantic && i != semantic+baseline {
			out = append(out, i)
		}
	}
	return out
}

// New builds cfg's population on its network, with the timeline that
// will drive it; nothing has run yet.
func New(cfg ScenarioConfig) (*Population, error) {
	if cfg.Buys <= 0 || cfg.Sets < 0 {
		return nil, fmt.Errorf("sim: invalid workload %d buys / %d sets", cfg.Buys, cfg.Sets)
	}
	if cfg.Buyers <= 0 {
		cfg.Buyers = 1
	}
	nSemantic, nBaseline, nClients := cfg.population()
	if nSemantic+nBaseline == 0 {
		return nil, fmt.Errorf("sim: population has no miners")
	}
	if cfg.SemanticFraction > 0 && nSemantic == 0 {
		return nil, fmt.Errorf("sim: semantic fraction %.2f with no semantic miners", cfg.SemanticFraction)
	}
	if cfg.SemanticFraction < 1 && nBaseline == 0 {
		return nil, fmt.Errorf("sim: semantic fraction %.2f needs baseline miners (population has none)", cfg.SemanticFraction)
	}
	s := &Population{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		contract:  types.Address{19: 0xcc},
		buyHashes: make(map[types.Hash]bool),
		setHashes: make(map[types.Hash]bool),
	}

	reg := wallet.NewRegistry()
	s.owner = wallet.NewKey(fmt.Sprintf("owner-%d", cfg.Seed))
	reg.Register(s.owner)
	if cfg.SingleSender {
		s.buyers = []*wallet.Key{s.owner}
	} else {
		for i := 0; i < cfg.Buyers; i++ {
			k := wallet.NewKey(fmt.Sprintf("buyer-%d-%d", cfg.Seed, i))
			reg.Register(k)
			s.buyers = append(s.buyers, k)
		}
	}
	s.buyerNonce = make([]uint64, len(s.buyers))

	genesis := statedb.New()
	genesis.SetCode(s.contract, asm.SerethContract())
	// One validated-execution cache for the peers without a store: a
	// block's miner executes it once, to build it, and memoizes that
	// execution when its own import has verified it; every other such
	// peer verifies the header by root comparison (§II-D economics
	// without N identical executions per in-process block). A peer with
	// a store executes every block itself (chain.Config.ExecCache).
	cache := chain.NewExecCache(0)
	chainCfg := chain.Config{GasLimit: cfg.BlockGasLimit, Registry: reg}
	if cfg.ParallelExec {
		chainCfg.Parallel = true
		// Fixed worker count (not GOMAXPROCS) and threshold 1: sim runs
		// must exercise the parallel path deterministically regardless of
		// the host's core count — on a single-core runner GOMAXPROCS
		// would silently fall back to the sequential path.
		chainCfg.ParallelWorkers = 4
		chainCfg.ParallelThreshold = 1
	}

	topo, err := p2p.ParseTopology(cfg.Topology, cfg.Degree, cfg.Seed+2)
	if err != nil {
		return nil, err
	}
	netCfg := p2p.Config{
		LatencyMs: cfg.GossipLatencyMs,
		DropRate:  cfg.DropRate,
		Seed:      cfg.Seed + 1,
		Topology:  topo,
	}
	if err := s.cast(reg, &netCfg); err != nil {
		return nil, err
	}
	s.net = p2p.NewNetwork(netCfg)

	mk := func(idx int, mode node.Mode, minerKind node.MinerKind) (*node.Node, error) {
		id := p2p.PeerID(idx + 1)
		nodeCfg := node.Config{
			ID: id, Mode: mode, Miner: minerKind,
			Contract: s.contract, Chain: chainCfg, Genesis: genesis,
			Network: s.net, Seed: cfg.Seed + int64(id)*7,
			ExtendHeads: cfg.ExtendHeads, ReorderWindow: cfg.ReorderWindow,
			PoolCapacity: cfg.PoolCapacity, EvictOnFull: cfg.EvictOnFull,
		}
		if cfg.Persist {
			nodeCfg.Store = store.NewMem()
		}
		for _, a := range s.actors {
			if err := a.configure(idx, &nodeCfg); err != nil {
				return nil, err
			}
		}
		if nodeCfg.Store == nil { // after configure: an actor may give one
			nodeCfg.Chain.ExecCache = cache
		}
		return node.New(nodeCfg)
	}
	// Peer ids are assigned semantic miners first, then baseline miners,
	// then clients — the paper rig keeps its historical 1/2/3 layout.
	for idx := 0; idx < nSemantic+nBaseline+nClients; idx++ {
		mode, minerKind := cfg.ClientMode, node.MinerNone
		if idx < nSemantic {
			mode, minerKind = node.ModeSereth, node.MinerSemantic
		} else if idx < nSemantic+nBaseline {
			mode, minerKind = node.ModeGeth, node.MinerBaseline
		}
		n, err := mk(idx, mode, minerKind)
		if err != nil {
			s.cleanup()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	// The roles are views of nodes, so a peer rebuilt into nodes is in
	// its role too.
	s.semantic, s.baseline, s.clients = s.nodes[:nSemantic], s.nodes[nSemantic:nSemantic+nBaseline], s.nodes[nSemantic+nBaseline:]
	for _, a := range s.actors {
		a.start()
	}
	// The serving tier comes up last, so a failed build before it leaves
	// no listener behind; cleanup tears them down.
	if cfg.RPCClients {
		var err error
		if s.rpc, err = newRPCFrontend(s.clients, s.contract); err != nil {
			s.cleanup()
			return nil, err
		}
	}
	return s, nil
}

// Nodes returns the peers by index. A crashed peer's restart replaces its
// node, so read them again after every Step.
func (s *Population) Nodes() []*node.Node { return s.nodes }

// Network returns the gossip network the peers share.
func (s *Population) Network() *p2p.Network { return s.net }

// cleanup closes the serving tier's listeners and connections, then
// releases what the actors hold (the crash family's datadirs and store
// handles). It is idempotent; Finish always calls it, as do New's error
// paths and a failed Step.
func (s *Population) cleanup() {
	if s.rpc != nil {
		s.rpc.close()
		s.rpc = nil
	}
	for _, a := range s.actors {
		a.close()
	}
}

// schedule builds the submission timeline. The opening set happens at
// t=0 (the market's opening price, §II-F) and the buys start after the
// first block so they never read the empty genesis state.
func (s *Population) schedule() []event {
	var events []event
	buyStart := s.cfg.BlockIntervalMs
	span := uint64(s.cfg.Buys) * s.cfg.SubmitIntervalMs

	events = append(events, event{at: 0, kind: evSet, idx: -1}) // opening price
	if s.cfg.BurstSize > 1 {
		// Burst submission: one event per group of BurstSize buys, at
		// the instant the group's first buy would have gone out.
		for i := 0; i < s.cfg.Buys; i += s.cfg.BurstSize {
			events = append(events, event{at: buyStart + uint64(i)*s.cfg.SubmitIntervalMs, kind: evBurst, idx: i})
		}
	} else {
		for i := 0; i < s.cfg.Buys; i++ {
			events = append(events, event{at: buyStart + uint64(i)*s.cfg.SubmitIntervalMs, kind: evBuy, idx: i})
		}
	}
	for k := 0; k < s.cfg.Sets; k++ {
		at := buyStart + uint64(float64(k)*float64(span)/float64(s.cfg.Sets))
		events = append(events, event{at: at, kind: evSet, idx: k})
	}
	// The actors' events ride the same unified timeline; the stable sort
	// keeps workload events ahead of same-instant actor events.
	for _, a := range s.actors {
		events = append(events, a.events(buyStart, span)...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	return events
}

// timeline merges the submission schedule with the self-rescheduling
// block source into ONE ordered event stream — the unified scheduler
// the population engine runs on. A block and a submission due at the
// same instant mine first (block production wins ties, matching the
// paper rig). After the submission window closes it keeps emitting up
// to maxDrain backlog-draining blocks, tagged so the run loop can stop
// once every pool is empty.
type timeline struct {
	subs    []event
	si      int
	blockAt uint64
	lastSub uint64
	meanGap uint64

	drained  int
	maxDrain int
}

// drainIdx marks blocks mined in the backlog-drain phase.
const drainIdx = -2

func (s *Population) newTimeline() *timeline {
	subs := s.schedule()
	return &timeline{
		subs:     subs,
		blockAt:  s.nextBlockGap(),
		lastSub:  subs[len(subs)-1].at,
		meanGap:  s.cfg.BlockIntervalMs,
		maxDrain: s.cfg.DrainBlocks,
	}
}

// next yields the earliest pending event if it is due at or before
// until, and leaves it pending otherwise. Block events do NOT reschedule
// themselves here: the run loop moves blockAt afterwards, so the rng
// draw for the next gap happens after the mine draw — the exact stream
// order of the original two-timeline loop.
func (tl *timeline) next(until uint64) (event, bool) {
	var ev event
	switch {
	case tl.si < len(tl.subs) && tl.subs[tl.si].at < tl.blockAt:
		ev = tl.subs[tl.si]
	case tl.si < len(tl.subs) || tl.blockAt <= tl.lastSub+tl.meanGap:
		ev = event{at: tl.blockAt, kind: evBlock}
	case tl.drained < tl.maxDrain:
		ev = event{at: tl.blockAt, kind: evBlock, idx: drainIdx}
	default:
		return event{}, false
	}
	if ev.at > until {
		return event{}, false
	}
	if ev.kind != evBlock {
		tl.si++
	} else if ev.idx == drainIdx {
		tl.drained++
	}
	return ev, true
}

// stop ends the drain phase.
func (tl *timeline) stop() { tl.maxDrain = tl.drained }

// Step runs every timeline event due at or before the model time to
// (ms), then delivers what the network holds up to it. An error stops
// the population and releases the actors; Step and Finish return it from
// then on.
func (s *Population) Step(to uint64) error {
	if err := s.advance(to); err != nil {
		return err
	}
	s.net.AdvanceTo(to)
	return nil
}

// Finish runs the rest of the timeline, delivers everything the network
// still holds, collects the Result and releases the actors.
func (s *Population) Finish() (Result, error) {
	defer s.cleanup()
	if err := s.advance(^uint64(0)); err != nil {
		return Result{}, err
	}
	s.net.Drain()
	s.observe(s.net.Now())
	return s.collect()
}

// advance runs the timeline's events due at or before until: every
// submission, block and network delivery advances through its single
// clock, and after every event each actor observes the population.
func (s *Population) advance(until uint64) error {
	if s.tl == nil {
		// Built at the first step, not by New: what a caller submits
		// before stepping draws from the rng ahead of the first gap.
		s.tl = s.newTimeline()
	}
	for s.err == nil {
		ev, ok := s.tl.next(until)
		if !ok {
			break
		}
		s.net.AdvanceTo(ev.at)
		if s.err = s.dispatch(ev); s.err != nil {
			s.cleanup()
			break
		}
		if ev.kind == evBlock {
			s.tl.blockAt += s.nextBlockGap()
		}
		s.observe(ev.at)
		if ev.kind == evBlock && ev.idx == drainIdx && s.drainDone() {
			s.tl.stop()
		}
	}
	return s.err
}

func (s *Population) dispatch(ev event) error {
	switch ev.kind {
	case evBlock:
		return s.mine(ev.at)
	case evSet:
		return s.submitSet()
	case evBuy:
		return s.submitBuy(ev.idx)
	case evBurst:
		return s.submitBurst(ev.idx)
	}
	return ev.fire(ev.at)
}

func (s *Population) observe(at uint64) {
	for _, a := range s.actors {
		a.observe(at)
	}
}

// drainDone decides whether the backlog-drain phase may stop. In an
// honest run it is the pools-empty check. Under faults it additionally
// requires every actor to have settled and all online peers to share
// one head — a population whose pools are empty but whose chains still
// disagree (post-partition) must keep mining so the longest-chain rule
// can finish converging. DrainBlocks still bounds the phase either way.
func (s *Population) drainDone() bool {
	for _, n := range s.nodes {
		if n.Pool().Len() != 0 {
			return false
		}
	}
	if len(s.actors) == 0 {
		return true
	}
	for _, a := range s.actors {
		if !a.settled() {
			return false
		}
	}
	return s.convergedNow()
}

// convergedNow reports whether every online peer is on the primary
// client's exact head.
func (s *Population) convergedNow() bool {
	head := s.clients[0].Chain().HeadHash()
	for _, n := range s.nodes {
		if s.offline[n.ID()] == 0 && n.Chain().HeadHash() != head {
			return false
		}
	}
	return true
}

// down takes peer idx off the network: it stops receiving deliveries and
// producing blocks until every actor that took it down has brought it
// up, so overlapping outages of one peer compose.
func (s *Population) down(idx int) {
	id := s.nodes[idx].ID()
	if s.offline == nil {
		s.offline = make(map[p2p.PeerID]int)
	}
	if s.offline[id]++; s.offline[id] == 1 {
		s.net.Leave(id)
	}
}

// up releases one hold on peer idx; the last joins it, possibly a
// rebuilt node, back to the network. A node joins the network as it is
// built, so a rebuilt one that is still held leaves again.
func (s *Population) up(idx int) {
	n := s.nodes[idx]
	if s.offline[n.ID()]--; s.offline[n.ID()] > 0 {
		s.net.Leave(n.ID())
		return
	}
	delete(s.offline, n.ID())
	s.net.Join(n.ID(), n)
}

// nextBlockGap draws the time to the next block: exponential with the
// configured mean under PoissonBlocks (clamped to [mean/4, 4*mean]),
// fixed otherwise.
func (s *Population) nextBlockGap() uint64 {
	if !s.cfg.PoissonBlocks {
		return s.cfg.BlockIntervalMs
	}
	mean := float64(s.cfg.BlockIntervalMs)
	gap := s.rng.ExpFloat64() * mean
	if gap < mean/4 {
		gap = mean / 4
	}
	if gap > mean*4 {
		gap = mean * 4
	}
	return uint64(gap)
}

// mine picks the block producer per the semantic participation fraction;
// with several miners of the chosen kind the producer is drawn uniformly
// (single-miner pools consume no extra randomness, keeping the paper
// rig's rng stream bit-identical).
func (s *Population) mine(at uint64) error {
	// New validates that the drawn kind always has miners:
	// fraction > 0 implies semantic miners exist, fraction < 1 implies
	// baseline miners exist (Float64() < 1 always holds at fraction 1).
	pool := s.baseline
	if s.cfg.SemanticFraction > 0 && s.rng.Float64() < s.cfg.SemanticFraction {
		pool = s.semantic
	}
	// Miners that are down cannot produce. The filter (and the extra
	// state it implies) only engages while someone is offline, so
	// fault-free runs keep the historical producer-draw stream
	// bit-identical.
	if len(s.offline) > 0 {
		online := make([]*node.Node, 0, len(pool))
		for _, n := range pool {
			if s.offline[n.ID()] == 0 {
				online = append(online, n)
			}
		}
		if len(online) == 0 {
			return nil // every miner of the drawn kind is down: skip the slot
		}
		pool = online
	}
	producer := pool[0]
	if len(pool) > 1 {
		producer = pool[s.rng.Intn(len(pool))]
	}
	block, err := producer.MineAndBroadcast(at / 1000)
	if err != nil {
		return err
	}
	if block != nil {
		s.blocksMined++
	}
	return nil
}

// canonical calls visit for every block of the primary client's
// canonical chain above genesis, with its receipts.
func (s *Population) canonical(visit func(block *types.Block, hash types.Hash, receipts []*types.Receipt)) {
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

// collect classifies every receipt on the primary client's chain, then
// each actor reports its section.
func (s *Population) collect() (Result, error) {
	res := Result{
		Config:        s.cfg,
		BuysSubmitted: s.buysSent,
		BuysDropped:   s.buysDropped,
		SetsSubmitted: s.ownerSets,
		SetsDropped:   s.setsDropped,
		Blocks:        int(s.clients[0].Chain().Height()),
		BlocksMined:   s.blocksMined,
		Converged:     s.convergedNow(),
	}
	res.MsgsSent, res.MsgsDropped = s.net.Stats()
	for _, n := range s.nodes {
		res.Evicted += n.Pool().Evicted()
	}
	var lastTime uint64
	s.canonical(func(block *types.Block, _ types.Hash, receipts []*types.Receipt) {
		lastTime = block.Header.Time
		for _, receipt := range receipts {
			succeeded := receipt.Status == types.StatusSucceeded
			switch {
			case s.buyHashes[receipt.TxHash]:
				res.BuysIncluded++
				if succeeded {
					res.BuysSucceeded++
				}
			case s.setHashes[receipt.TxHash]:
				res.SetsIncluded++
				if succeeded {
					res.SetsSucceeded++
				}
			}
		}
	})
	res.DurationS = float64(lastTime)
	if res.BlocksMined > res.Blocks {
		res.BlocksOrphaned = res.BlocksMined - res.Blocks
	}
	for _, a := range s.actors {
		if err := a.report(&res); err != nil {
			return Result{}, err
		}
	}
	// Each store must hold its peer's chain whole: chain.Open, with no
	// store of its own, verifies the head state in full and must land on
	// the peer's head with every block from genesis.
	for _, n := range s.nodes {
		if n.Store() == nil {
			continue
		}
		cfg := n.Chain().Config()
		cfg.Store = nil
		c, err := chain.Open(cfg, n.Store())
		if err == nil && (c.Head().Hash() != n.Chain().Head().Hash() || c.Base() != 0) {
			err = fmt.Errorf("reopens at block %d from base %d", c.Height(), c.Base())
		}
		if err != nil {
			return Result{}, fmt.Errorf("sim: peer %d's store at its head %d: %w", n.ID(), n.Chain().Height(), err)
		}
	}
	return res, nil
}
