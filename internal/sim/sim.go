// Package sim is the evaluation harness: it reconstructs the paper's
// experiments (§V) on the simulated network. A scenario builds a peer
// population — by default the paper's 3-peer rig (one semantic miner,
// one baseline miner, one client), generalizable to N miners and M
// clients over an arbitrary topology — replays the dynamic-pricing
// workload, and measures transaction efficiency η = succeeded/included
// over the buys, exactly the quantity Figure 2 plots against the
// buy:set ratio. Submissions, block production and network delivery are
// all driven through one unified event timeline.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/statedb"
	"sereth/internal/store"
	"sereth/internal/txpool"
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

	// Faults configures the fault-injection and adversary layer (chaos
	// family). The zero value disables it entirely and keeps the run
	// bit-identical to the pre-fault harness.
	Faults FaultPlan

	// ParallelExec routes every node's block execution through the
	// optimistic parallel processor (chain.ParallelProcessor) with a
	// deterministic 4-worker pool and threshold 1, so even small sim
	// bodies exercise the speculate/validate/merge path. Execution is
	// bit-identical to the sequential processor by construction (and by
	// the differential suite), so every measured η is unaffected.
	ParallelExec bool

	// RPCClients publishes every client peer behind a real HTTP JSON-RPC
	// endpoint (rpc.Server on an httptest listener): view reads travel
	// as sereth_view / eth_getStorageAt calls and submissions as
	// eth_sendRawTransaction, exercising the full serving tier
	// in-process. The round trip returns the same view words and admits
	// the same signed transactions, so every measured η is unaffected.
	// Burst submissions (BurstSize > 1) keep the in-process batched
	// pipeline — JSON-RPC has no batch submit.
	RPCClients bool

	// Persist backs every node's chain with its own in-memory
	// store.Store, so each adopted block flushes dirty state and block
	// records exactly as a disk-backed deployment would. Persistence is
	// write-through — it never changes execution — so every measured η
	// is unaffected.
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

	// Robustness metrics (all zero outside the chaos family).

	// BlocksMined counts every block produced anywhere; the excess over
	// Blocks (the primary client's canonical height) is BlocksOrphaned —
	// mined but not canonical, the cost of partitions and gossip loss.
	BlocksMined    int
	BlocksOrphaned int
	// Rejoins counts churn rejoin events; ResyncMs holds, per rejoin,
	// the model time from rejoin until the peer caught back up to the
	// online population's height at rejoin. ResyncIncomplete counts
	// rejoined peers that never caught up.
	Rejoins          int
	ResyncMs         []float64
	ResyncIncomplete int
	// Crash-family accounting: hard kills of persisting peers, completed
	// restarts, restarts that recovered a durable head from disk (vs
	// falling back to genesis because the crash predated any durable
	// write), per-restart recovery latency (salvage + gossip catch-up),
	// and the storage-salvage totals across every restart.
	Crashes            int
	CrashRecoveries    int
	RecoveredBoots     int
	CrashRecoveryMs    []float64
	SalvageTornBytes   uint64
	SalvageQuarantined uint64
	SalvageCorrected   uint64
	// Converged reports whether every online peer ended on the primary
	// client's exact head (hash, not just height).
	Converged bool
	// TxsCensored counts censoring-miner exclusion events (one per
	// targeted pending tx per block build); CensoredSubmitted/Included
	// track the targeted senders' buys end to end.
	TxsCensored       uint64
	CensoredSubmitted int
	CensoredIncluded  int
	// Attack accounting: what the adversary emitted, what the honest
	// chain absorbed. ForgedBlocksAccepted must stay 0.
	AttackTxsSent        int
	AttackTxsIncluded    int
	AttackTxsSucceeded   int
	ForgedBlocksSent     int
	ForgedBlocksAccepted int
	// Fault-layer intervention counters (p2p.FaultStats).
	PartitionBlocked uint64
	LinkDropped      uint64
	LinkDuplicated   uint64
	LinkReordered    uint64
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
	s, err := newScenario(cfg)
	if err != nil {
		return Result{}, err
	}
	defer s.cleanup()
	return s.run()
}

type eventKind int

const (
	evSet eventKind = iota + 1
	evBuy
	evBurst // a batch of BurstSize consecutive buys starting at idx
	evBlock
	// Fault-schedule events (chaos family). idx is the node index for
	// churn events and unused otherwise.
	evLeave
	evJoin
	evPartition
	evHeal
	evAttack
	// Crash-family events: a hard process kill of a persisting peer
	// (unsynced log tail cut, handle abandoned) and its restart from the
	// salvaged datadir.
	evCrash
	evRestart
)

type event struct {
	at   uint64
	kind eventKind
	idx  int
}

type scenario struct {
	cfg ScenarioConfig
	rng *rand.Rand

	net      *p2p.Network
	semantic []*node.Node // semantic-mining peers
	baseline []*node.Node // baseline-mining peers
	clients  []*node.Node // non-mining client peers
	nodes    []*node.Node // all peers
	rpc      *rpcFrontend // serving tier (nil unless RPCClients)

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

	// Fault-injection state (nil/zero outside the chaos family).
	adv         adversary
	advID       p2p.PeerID
	offline     map[p2p.PeerID]bool // churned-out peers
	rejoins     int
	resyncs     []resyncWatch // rejoined peers still catching up
	resyncDone  []float64     // completed resync latencies (ms)
	blocksMined int
	// Crash-family state: the node configs (for rebuilding a crashed
	// peer), the crash-eligible indexes chosen up front (those peers run
	// on fault-injected file stores), their datadirs and store handles,
	// and the recovery accounting.
	nodeCfgs        []node.Config
	crashIdxs       []int
	crashDirs       map[int]string
	crashFaults     map[int]*store.FaultStore
	crashes         int
	crashRecoveries int
	recoveredBoots  int
	crashRecoveryMs []float64
	salvageTorn     uint64
	salvageQuar     uint64
	salvageFixed    uint64
	// Censoring-miner accounting: the targeted sender set and the
	// hashes of their submitted buys.
	censorAddrs       map[types.Address]bool
	censoredHashes    map[types.Hash]bool
	censoredSubmitted int
	// Adversary emissions, shared with the actor; collect() scans the
	// canonical chain for them.
	attackTxs    map[types.Hash]bool
	forgedBlocks map[types.Hash]bool
}

// resyncWatch tracks one rejoined peer until it reaches the height the
// online population held when it rejoined.
type resyncWatch struct {
	idx    int
	joinAt uint64
	target uint64
	// crash marks a crash-restart watch: its latency is the disk-recovery
	// + catch-up time, reported separately from churn resyncs.
	crash bool
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

func newScenario(cfg ScenarioConfig) (*scenario, error) {
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
	s := &scenario{
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

	// Fault-layer setup that must precede node creation: the censoring
	// miners need their target list at construction time, and the
	// front-runner's key must be registered before the registry is
	// shared out.
	fp := cfg.Faults
	var censorTargets []types.Address
	censorLeft := 0
	if fp.Adversary == AdversaryCensor {
		k := fp.CensorTargets
		if k <= 0 {
			k = (len(s.buyers) + 3) / 4
		}
		if k > len(s.buyers) {
			k = len(s.buyers)
		}
		s.censorAddrs = make(map[types.Address]bool, k)
		s.censoredHashes = make(map[types.Hash]bool)
		for i := 0; i < k; i++ {
			censorTargets = append(censorTargets, s.buyers[i].Address())
			s.censorAddrs[s.buyers[i].Address()] = true
		}
		censorLeft = fp.CensorMiners
		if censorLeft <= 0 {
			censorLeft = nSemantic + nBaseline
		}
	}
	var frontKey *wallet.Key
	if fp.Adversary == AdversaryFrontrun {
		frontKey = wallet.NewKey(fmt.Sprintf("frontrunner-%d", cfg.Seed))
		reg.Register(frontKey)
	}

	genesis := statedb.New()
	genesis.SetCode(s.contract, asm.SerethContract())
	// One shared validated-execution cache for the whole population: a
	// block's miner executes it once, to build it, and memoizes that
	// execution when its own import has verified it; every other peer
	// verifies the header by root comparison (§II-D economics without N
	// identical executions per in-process block).
	chainCfg := chain.Config{
		GasLimit:  cfg.BlockGasLimit,
		Registry:  reg,
		ExecCache: chain.NewExecCache(0),
	}
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
	if fp.Enabled() {
		// All link-fault randomness comes from a namespaced sub-seed, so
		// enabling the layer never perturbs the base delivery stream.
		netCfg.Faults = &p2p.FaultConfig{
			Seed:    subSeed(cfg.Seed, "p2p-faults"),
			Default: fp.linkPolicy(),
		}
	}
	s.net = p2p.NewNetwork(netCfg)

	// Crash-family setup: the crashing peers are drawn from the same
	// protected-set rules as churn (never the first miner of each kind or
	// the primary client), chosen before construction so they can be
	// built on fault-injected file stores from genesis on.
	crashSet := map[int]bool{}
	if fp.CrashPeers > 0 {
		if cfg.RPCClients {
			return nil, fmt.Errorf("sim: CrashPeers is incompatible with RPCClients (the frontend would serve dead nodes)")
		}
		protected := map[int]bool{0: true, nSemantic: true, nSemantic + nBaseline: true}
		var eligible []int
		for i := 0; i < nSemantic+nBaseline+nClients; i++ {
			if !protected[i] {
				eligible = append(eligible, i)
			}
		}
		crashRng := rand.New(rand.NewSource(subSeed(cfg.Seed, "crash")))
		crashRng.Shuffle(len(eligible), func(i, j int) {
			eligible[i], eligible[j] = eligible[j], eligible[i]
		})
		k := fp.CrashPeers
		if k > len(eligible) {
			k = len(eligible)
		}
		s.crashIdxs = append(s.crashIdxs, eligible[:k]...)
		sort.Ints(s.crashIdxs)
		for _, idx := range s.crashIdxs {
			crashSet[idx] = true
		}
		s.crashDirs = make(map[int]string, k)
		s.crashFaults = make(map[int]*store.FaultStore, k)
	}

	mk := func(idx int, id p2p.PeerID, mode node.Mode, minerKind node.MinerKind) (*node.Node, error) {
		nodeCfg := node.Config{
			ID: id, Mode: mode, Miner: minerKind,
			Contract: s.contract, Chain: chainCfg, Genesis: genesis,
			Network: s.net, Seed: cfg.Seed + int64(id)*7,
			ExtendHeads: cfg.ExtendHeads, ReorderWindow: cfg.ReorderWindow,
			PoolCapacity: cfg.PoolCapacity, EvictOnFull: cfg.EvictOnFull,
		}
		if minerKind != node.MinerNone && censorLeft > 0 {
			nodeCfg.CensorTargets = censorTargets
			censorLeft--
		}
		if cfg.Persist {
			nodeCfg.Store = store.NewMem()
		}
		if crashSet[idx] {
			dir, err := os.MkdirTemp("", "sereth-crash-")
			if err != nil {
				return nil, err
			}
			s.crashDirs[idx] = dir
			kv, err := store.OpenFile(dir)
			if err != nil {
				return nil, err
			}
			fault := store.NewFault(kv, s.crashPolicy(idx))
			s.crashFaults[idx] = fault
			nodeCfg.Store = fault
			nodeCfg.Chain.SyncEvery = s.crashSyncEvery()
			// A crashing peer must own everything it persists. The
			// population-shared exec cache and genesis state hand it
			// statedbs whose dirty trie nodes were already committed into
			// the FIRST committer's store — write-through adoption of those
			// would leave holes in this peer's own datadir, unrecoverable
			// after a kill. A private cache (every block re-executed
			// locally) and a private genesis instance (same root, fresh
			// dirty flags) keep its log complete; execution is
			// deterministic, so this changes only CPU time, never η.
			nodeCfg.Chain.ExecCache = chain.NewExecCache(0)
			nodeCfg.Genesis = s.freshGenesis()
		}
		// The config is remembered verbatim (minus the store, swapped at
		// restart) so a crashed peer can be rebuilt from its datadir.
		s.nodeCfgs = append(s.nodeCfgs, nodeCfg)
		return node.New(nodeCfg)
	}
	// Peer ids are assigned semantic miners first, then baseline miners,
	// then clients — the paper rig keeps its historical 1/2/3 layout.
	id := p2p.PeerID(1)
	for i := 0; i < nSemantic; i++ {
		n, err := mk(int(id)-1, id, node.ModeSereth, node.MinerSemantic)
		if err != nil {
			s.cleanup()
			return nil, err
		}
		s.semantic = append(s.semantic, n)
		id++
	}
	for i := 0; i < nBaseline; i++ {
		n, err := mk(int(id)-1, id, node.ModeGeth, node.MinerBaseline)
		if err != nil {
			s.cleanup()
			return nil, err
		}
		s.baseline = append(s.baseline, n)
		id++
	}
	for i := 0; i < nClients; i++ {
		n, err := mk(int(id)-1, id, cfg.ClientMode, node.MinerNone)
		if err != nil {
			s.cleanup()
			return nil, err
		}
		s.clients = append(s.clients, n)
		id++
	}
	s.nodes = append(append(append(s.nodes, s.semantic...), s.baseline...), s.clients...)

	if fp.Enabled() {
		s.offline = make(map[p2p.PeerID]bool)
		switch fp.Adversary {
		case AdversaryForger:
			s.attackTxs = make(map[types.Hash]bool)
			s.forgedBlocks = make(map[types.Hash]bool)
			s.advID = id
			fg := newForger(s.net, id, cfg.Seed, s.contract, s.attackTxs, s.forgedBlocks)
			s.adv = fg
			s.net.Join(id, fg)
		case AdversaryFrontrun:
			s.attackTxs = make(map[types.Hash]bool)
			s.advID = id
			fr := newFrontrunner(s.net, id, frontKey, s.contract, s.attackTxs)
			s.adv = fr
			s.net.Join(id, fr)
		case AdversaryCensor, "":
		default:
			return nil, fmt.Errorf("sim: unknown adversary %q", fp.Adversary)
		}
	}
	// The serving tier comes up last: newScenario has no error paths
	// after this point, so the listeners cannot leak on a failed build
	// (run tears them down).
	if cfg.RPCClients {
		s.rpc = newRPCFrontend(s.clients, s.contract)
	}
	return s, nil
}

// freshGenesis builds a private genesis state instance: bit-identical
// root, but with its own dirty-node tracking so a crash peer's store
// receives the full genesis commit (see the crash setup in mk).
func (s *scenario) freshGenesis() *statedb.StateDB {
	g := statedb.New()
	g.SetCode(s.contract, asm.SerethContract())
	return g
}

// crashPolicy is the storage fault policy a crash-eligible peer runs
// under: no active write faults, but a manual Crash() drops the
// unsynced log tail at a seeded random byte — a kill mid-commit.
func (s *scenario) crashPolicy(idx int) *store.FaultPolicy {
	return &store.FaultPolicy{
		Seed:                subSeed(s.cfg.Seed, fmt.Sprintf("crash-store-%d", idx)),
		DropUnsyncedOnCrash: true,
	}
}

// crashSyncEvery resolves the crashing peers' store-sync cadence.
func (s *scenario) crashSyncEvery() int {
	if n := s.cfg.Faults.CrashSyncEvery; n > 0 {
		return n
	}
	return 2
}

// cleanup releases the crash-family datadirs and store handles. It is
// idempotent; Run always calls it, as do newScenario's error paths.
func (s *scenario) cleanup() {
	for _, f := range s.crashFaults {
		_ = f.Close()
	}
	s.crashFaults = nil
	for _, dir := range s.crashDirs {
		_ = os.RemoveAll(dir)
	}
	s.crashDirs = nil
}

// churnEligible lists the node indexes churn may take down: everyone
// except the first miner of each kind (the population must keep mining
// on both draw paths) and the primary client (the measurement point and
// set submitter).
func (s *scenario) churnEligible() []int {
	keep := map[int]bool{}
	if len(s.semantic) > 0 {
		keep[0] = true
	}
	if len(s.baseline) > 0 {
		keep[len(s.semantic)] = true
	}
	keep[len(s.semantic)+len(s.baseline)] = true // primary client
	var out []int
	for i := range s.nodes {
		if !keep[i] {
			out = append(out, i)
		}
	}
	return out
}

// faultSchedule derives the chaos family's churn / partition / attack
// events. Churn instants come from a dedicated namespaced sub-RNG, so
// the fault schedule is reproducible and independent of every other
// randomness stream.
func (s *scenario) faultSchedule(buyStart, span uint64) []event {
	fp := s.cfg.Faults
	if !fp.Enabled() {
		return nil
	}
	var events []event
	if fp.ChurnPeers > 0 {
		churnRng := rand.New(rand.NewSource(subSeed(s.cfg.Seed, "churn")))
		eligible := s.churnEligible()
		churnRng.Shuffle(len(eligible), func(i, j int) {
			eligible[i], eligible[j] = eligible[j], eligible[i]
		})
		k := fp.ChurnPeers
		if k > len(eligible) {
			k = len(eligible)
		}
		down := fp.ChurnDownMs
		if down == 0 {
			down = 2 * s.cfg.BlockIntervalMs
		}
		for i := 0; i < k; i++ {
			at := buyStart + uint64(churnRng.Int63n(int64(span)))
			events = append(events,
				event{at: at, kind: evLeave, idx: eligible[i]},
				event{at: at + down, kind: evJoin, idx: eligible[i]})
		}
	}
	if len(s.crashIdxs) > 0 {
		// Crash instants draw from their own namespaced stream; the set
		// itself was chosen at construction (those peers carry the
		// fault-injected file stores).
		crashRng := rand.New(rand.NewSource(subSeed(s.cfg.Seed, "crash-times")))
		down := fp.CrashDownMs
		if down == 0 {
			down = 2 * s.cfg.BlockIntervalMs
		}
		for _, idx := range s.crashIdxs {
			at := buyStart + uint64(crashRng.Int63n(int64(span)))
			events = append(events,
				event{at: at, kind: evCrash, idx: idx},
				event{at: at + down, kind: evRestart, idx: idx})
		}
	}
	if fp.PartitionForMs > 0 {
		at := fp.PartitionAtMs
		if at == 0 {
			at = buyStart + span/4
		}
		events = append(events,
			event{at: at, kind: evPartition},
			event{at: at + fp.PartitionForMs, kind: evHeal})
	}
	if s.adv != nil {
		interval := fp.AttackIntervalMs
		if interval == 0 {
			interval = 2000
		}
		for at := buyStart + interval; at <= buyStart+span; at += interval {
			events = append(events, event{at: at, kind: evAttack})
		}
	}
	return events
}

// schedule builds the submission timeline. The opening set happens at
// t=0 (the market's opening price, §II-F) and the buys start after the
// first block so they never read the empty genesis state.
func (s *scenario) schedule() []event {
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
	// Fault events ride the same unified timeline; the stable sort keeps
	// workload events ahead of same-instant fault events.
	events = append(events, s.faultSchedule(buyStart, span)...)
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
	stopped  bool
}

// drainEvent marks blocks mined in the backlog-drain phase.
const drainIdx = -2

func (s *scenario) newTimeline() *timeline {
	subs := s.schedule()
	return &timeline{
		subs:     subs,
		blockAt:  s.nextBlockGap(),
		lastSub:  subs[len(subs)-1].at,
		meanGap:  s.cfg.BlockIntervalMs,
		maxDrain: s.cfg.DrainBlocks,
	}
}

// next yields the earliest pending event. Block events do NOT reschedule
// themselves here: the run loop calls blockMined afterwards, so the rng
// draw for the next gap happens after the mine draw — the exact stream
// order of the original two-timeline loop.
func (tl *timeline) next() (event, bool) {
	if tl.stopped {
		return event{}, false
	}
	if tl.si < len(tl.subs) || tl.blockAt <= tl.lastSub+tl.meanGap {
		nextSub := ^uint64(0)
		if tl.si < len(tl.subs) {
			nextSub = tl.subs[tl.si].at
		}
		if tl.blockAt <= nextSub {
			return event{at: tl.blockAt, kind: evBlock}, true
		}
		sub := tl.subs[tl.si]
		tl.si++
		return sub, true
	}
	if tl.drained >= tl.maxDrain {
		return event{}, false
	}
	tl.drained++
	return event{at: tl.blockAt, kind: evBlock, idx: drainIdx}, true
}

// blockMined reschedules the block source after a block was produced.
func (tl *timeline) blockMined(nextGap uint64) {
	tl.blockAt += nextGap
}

func (tl *timeline) stop() { tl.stopped = true }

// run drives the scenario: every submission, block and network delivery
// advances through the unified timeline's single clock.
func (s *scenario) run() (Result, error) { return s.drive(s.newTimeline()) }

// drive runs the scenario over tl (run's own timeline, or one a test
// has added events to).
func (s *scenario) drive(tl *timeline) (Result, error) {
	if s.rpc != nil {
		defer s.rpc.close()
	}
	for {
		ev, ok := tl.next()
		if !ok {
			break
		}
		s.net.AdvanceTo(ev.at)
		if ev.kind == evBlock {
			if err := s.mine(ev.at); err != nil {
				return Result{}, err
			}
			tl.blockMined(s.nextBlockGap())
			s.checkResyncs(ev.at)
			if ev.idx == drainIdx && s.drainDone() {
				tl.stop()
			}
			continue
		}
		if err := s.dispatch(ev); err != nil {
			return Result{}, err
		}
		s.checkResyncs(ev.at)
	}
	s.net.Drain()
	s.checkResyncs(s.net.Now())
	return s.collect()
}

func (s *scenario) poolsEmpty() bool {
	for _, n := range s.nodes {
		if n.Pool().Len() != 0 {
			return false
		}
	}
	return true
}

// drainDone decides whether the backlog-drain phase may stop. Outside
// the chaos family it is the historical pools-empty check. Under faults
// it additionally requires every rejoined peer to have caught up and all
// online peers to share one head — a population whose pools are empty
// but whose chains still disagree (post-partition) must keep mining so
// the longest-chain rule can finish converging. DrainBlocks still bounds
// the phase either way.
func (s *scenario) drainDone() bool {
	if !s.poolsEmpty() {
		return false
	}
	if s.cfg.Faults.Enabled() {
		if len(s.resyncs) > 0 || !s.convergedNow() {
			return false
		}
	}
	return true
}

// convergedNow reports whether every online peer is on the primary
// client's exact head.
func (s *scenario) convergedNow() bool {
	c := s.clients[0].Chain()
	h := c.Height()
	for _, n := range s.nodes {
		if s.offline[n.ID()] {
			continue
		}
		nc := n.Chain()
		if nc.Height() != h {
			return false
		}
		if h > 0 && nc.BlockByNumber(h).Hash() != c.BlockByNumber(h).Hash() {
			return false
		}
	}
	return true
}

// nextBlockGap draws the time to the next block: exponential with the
// configured mean under PoissonBlocks (clamped to [mean/4, 4*mean]),
// fixed otherwise.
func (s *scenario) nextBlockGap() uint64 {
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
func (s *scenario) mine(at uint64) error {
	// newScenario validates that the drawn kind always has miners:
	// fraction > 0 implies semantic miners exist, fraction < 1 implies
	// baseline miners exist (Float64() < 1 always holds at fraction 1).
	pool := s.baseline
	if s.cfg.SemanticFraction > 0 && s.rng.Float64() < s.cfg.SemanticFraction {
		pool = s.semantic
	}
	// Churned-out miners cannot produce. The filter (and the extra state
	// it implies) only engages while someone is offline, so fault-free
	// runs keep the historical producer-draw stream bit-identical.
	if len(s.offline) > 0 {
		online := make([]*node.Node, 0, len(pool))
		for _, n := range pool {
			if !s.offline[n.ID()] {
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

func (s *scenario) dispatch(ev event) error {
	switch ev.kind {
	case evSet:
		return s.submitSet()
	case evBuy:
		return s.submitBuy(ev.idx)
	case evBurst:
		return s.submitBurst(ev.idx)
	case evLeave:
		s.doLeave(ev.idx)
		return nil
	case evJoin:
		s.doJoin(ev.at, ev.idx)
		return nil
	case evCrash:
		s.doCrash(ev.idx)
		return nil
	case evRestart:
		return s.doRestart(ev.at, ev.idx)
	case evPartition:
		s.doPartition()
		return nil
	case evHeal:
		s.net.ClearPartition()
		return nil
	case evAttack:
		s.adv.attack(ev.at)
		return nil
	default:
		return fmt.Errorf("sim: unknown event kind %d", ev.kind)
	}
}

// doLeave crashes a peer: it stops receiving deliveries and producing
// blocks until its evJoin fires.
func (s *scenario) doLeave(idx int) {
	n := s.nodes[idx]
	s.offline[n.ID()] = true
	s.net.Leave(n.ID())
}

// doJoin brings a churned peer back. Its sync bookkeeping is reset (the
// peers it had asked before crashing may be gone or stale) and a resync
// watch records how long the frontier catch-up takes to reach the
// height the online population held at the rejoin instant.
func (s *scenario) doJoin(at uint64, idx int) {
	n := s.nodes[idx]
	delete(s.offline, n.ID())
	n.ResetSyncState()
	s.net.Join(n.ID(), n)
	s.rejoins++
	target := uint64(0)
	for _, m := range s.nodes {
		if s.offline[m.ID()] {
			continue
		}
		if h := m.Chain().Height(); h > target {
			target = h
		}
	}
	if n.Chain().Height() >= target {
		s.resyncDone = append(s.resyncDone, 0)
		return
	}
	s.resyncs = append(s.resyncs, resyncWatch{idx: idx, joinAt: at, target: target})
}

// doCrash hard-kills a persisting peer: it leaves the network like a
// churned peer, but its store additionally loses the unsynced log tail
// at a seeded random byte and abandons the file handle without sync —
// the write that was in flight when the process died.
func (s *scenario) doCrash(idx int) {
	n := s.nodes[idx]
	s.offline[n.ID()] = true
	s.net.Leave(n.ID())
	if f := s.crashFaults[idx]; f != nil {
		f.Crash()
	}
	s.crashes++
}

// doRestart brings a crashed peer back from its datadir: the log is
// salvaged on open, the node rebuilds from the durable head (or genesis
// when the crash predated any durable head), rejoins the network, and a
// recovery watch measures how long it takes to catch back up. Salvage
// or recovery failures abort the run — they are exactly the
// crash-consistency invariant this family exists to check.
func (s *scenario) doRestart(at uint64, idx int) error {
	kv, err := store.OpenFile(s.crashDirs[idx])
	if err != nil {
		return fmt.Errorf("sim: crash restart %d: salvage failed: %w", idx, err)
	}
	rep := kv.Salvage()
	s.salvageTorn += uint64(rep.TornBytes)
	s.salvageQuar += uint64(rep.Quarantined)
	s.salvageFixed += uint64(rep.Corrected)
	fault := store.NewFault(kv, s.crashPolicy(idx))
	s.crashFaults[idx] = fault
	cfg := s.nodeCfgs[idx]
	cfg.Store = fault
	// Both per-restart: the exec cache must not replay pre-crash post
	// states whose dirty nodes went to the dead handle, and the genesis
	// fallback (a kill before any durable head) must commit in full.
	cfg.Chain.ExecCache = chain.NewExecCache(0)
	cfg.Genesis = s.freshGenesis()
	n, err := node.New(cfg)
	if err != nil {
		return fmt.Errorf("sim: crash restart %d: reopen failed: %w", idx, err)
	}
	if n.BootSource() == node.BootRecovered {
		s.recoveredBoots++
	}
	s.replaceNode(idx, n)
	delete(s.offline, n.ID())
	s.net.Join(n.ID(), n)
	s.crashRecoveries++
	target := uint64(0)
	for _, m := range s.nodes {
		if s.offline[m.ID()] {
			continue
		}
		if h := m.Chain().Height(); h > target {
			target = h
		}
	}
	if n.Chain().Height() >= target {
		s.crashRecoveryMs = append(s.crashRecoveryMs, 0)
		return nil
	}
	s.resyncs = append(s.resyncs, resyncWatch{idx: idx, joinAt: at, target: target, crash: true})
	return nil
}

// replaceNode swaps a rebuilt peer into the population, keeping the
// role slices (which mine() draws producers from) in step.
func (s *scenario) replaceNode(idx int, n *node.Node) {
	s.nodes[idx] = n
	switch {
	case idx < len(s.semantic):
		s.semantic[idx] = n
	case idx < len(s.semantic)+len(s.baseline):
		s.baseline[idx-len(s.semantic)] = n
	default:
		s.clients[idx-len(s.semantic)-len(s.baseline)] = n
	}
}

// doPartition cuts the population into two mining halves (peers
// alternate by index, so each side keeps at least one miner of each
// kind); the adversary, if any, rides with group 0.
func (s *scenario) doPartition() {
	var groups [2][]p2p.PeerID
	for i, n := range s.nodes {
		groups[i%2] = append(groups[i%2], n.ID())
	}
	if s.adv != nil {
		groups[0] = append(groups[0], s.advID)
	}
	s.net.SetPartition([][]p2p.PeerID{groups[0], groups[1]})
}

// checkResyncs resolves resync watches whose peer has caught up.
func (s *scenario) checkResyncs(at uint64) {
	if len(s.resyncs) == 0 {
		return
	}
	remaining := s.resyncs[:0]
	for _, w := range s.resyncs {
		if s.nodes[w.idx].Chain().Height() >= w.target {
			if w.crash {
				s.crashRecoveryMs = append(s.crashRecoveryMs, float64(at-w.joinAt))
			} else {
				s.resyncDone = append(s.resyncDone, float64(at-w.joinAt))
			}
			continue
		}
		remaining = append(remaining, w)
	}
	s.resyncs = remaining
}

// submitSet issues the owner's next price change through the primary
// client. The owner tracks its own mark chain locally (its transactions
// are sequentially consistent from its own thread, §II-C), so sets never
// need a remote view and all of them succeed — matching §V-A. Under
// GasPriceSpread the set bids above the buy band so overloaded pools do
// not evict the price authority.
func (s *scenario) submitSet() error {
	price := types.WordFromUint64(uint64(10 + s.rng.Intn(90)))
	committedMark, err := s.clientStorage(0, asm.SlotMark)
	if err != nil {
		return fmt.Errorf("read mark for set %d: %w", s.ownerSets, err)
	}
	flag := types.FlagChain
	if s.ownerMark == committedMark {
		flag = types.FlagHead
	}
	gasPrice := uint64(10)
	if s.cfg.GasPriceSpread > 0 {
		gasPrice = 10 + uint64(s.cfg.GasPriceSpread)
	}
	tx, err := s.submitSetVia(0, gasPrice, flag, s.ownerMark, price)
	if err != nil {
		if errors.Is(err, txpool.ErrPoolFull) {
			s.setsDropped++
			return nil
		}
		return fmt.Errorf("submit set %d: %w", s.ownerSets, err)
	}
	s.ownerNonce++
	s.ownerSets++
	s.ownerMark = types.NextMark(s.ownerMark, price)
	s.ownerValue = price
	s.setHashes[tx.Hash()] = true
	return nil
}

// buildBuy constructs buy i's signed transaction from its client's best
// view: committed storage on a Geth client, the RAA/HMS READ-UNCOMMITTED
// view on a Sereth client (buyers round-robin over the client peers; the
// sequential-history check uses the single sender's locally-tracked
// chain instead of a remote view). The sender's nonce is read but NOT
// consumed — callers commit it via commitBuy once the transaction is
// accepted, so a refused buy never gaps the sender's sequence. Nothing
// mutates the transaction after signing, so it is memoized: the client's
// pool adopts this instance and its hash is derived once.
func (s *scenario) buildBuy(i int) (clientIdx, buyerIdx int, tx *types.Transaction, err error) {
	buyerIdx = i % len(s.buyers)
	key := s.buyers[buyerIdx]
	clientIdx = buyerIdx % len(s.clients)
	if s.offline[s.clients[clientIdx].ID()] {
		// The buyer's usual client is churned out: fall back to the
		// primary client (which never churns), as a real buyer would
		// retry against another endpoint.
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
	return clientIdx, buyerIdx, key.SignTx(&types.Transaction{
		Nonce:    nonce,
		To:       s.contract,
		GasPrice: gasPrice,
		GasLimit: 300_000,
		Data:     types.EncodeCall(asm.SelBuy, flag, mark, value),
	}).Memoize(), nil
}

// commitBuy records an accepted buy: the sender's nonce is consumed and
// the transaction counted into the run's buy set.
func (s *scenario) commitBuy(buyerIdx int, tx *types.Transaction) {
	if s.cfg.SingleSender {
		s.ownerNonce++
	} else {
		s.buyerNonce[buyerIdx]++
	}
	s.buysSent++
	s.buyHashes[tx.Hash()] = true
	if s.censorAddrs[tx.From] {
		s.censoredSubmitted++
		s.censoredHashes[tx.Hash()] = true
	}
}

// submitBuy issues one buy through its client.
func (s *scenario) submitBuy(i int) error {
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
func (s *scenario) submitBurst(start int) error {
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

// collect walks the primary client's chain and classifies every receipt.
func (s *scenario) collect() (Result, error) {
	res := Result{
		Config:        s.cfg,
		BuysSubmitted: s.buysSent,
		BuysDropped:   s.buysDropped,
		SetsSubmitted: s.ownerSets,
		SetsDropped:   s.setsDropped,
	}
	res.MsgsSent, res.MsgsDropped = s.net.Stats()
	for _, n := range s.nodes {
		res.Evicted += n.Pool().Evicted()
	}
	c := s.clients[0].Chain()
	res.Blocks = int(c.Height())
	var lastTime uint64
	for n := uint64(1); n <= c.Height(); n++ {
		block := c.BlockByNumber(n)
		lastTime = block.Header.Time
		if s.forgedBlocks[block.Hash()] {
			res.ForgedBlocksAccepted++
		}
		for _, receipt := range c.Receipts(block.Hash()) {
			succeeded := receipt.Status == types.StatusSucceeded
			if s.censoredHashes[receipt.TxHash] {
				res.CensoredIncluded++
			}
			if s.attackTxs[receipt.TxHash] {
				res.AttackTxsIncluded++
				if succeeded {
					res.AttackTxsSucceeded++
				}
			}
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
	}
	res.DurationS = float64(lastTime)
	s.collectChaos(&res)
	return res, nil
}

// collectChaos fills the robustness metrics. It runs for every scenario
// (convergence is a universal invariant) but the fault counters are
// only non-zero when the fault layer was active.
func (s *scenario) collectChaos(res *Result) {
	res.BlocksMined = s.blocksMined
	if res.BlocksMined > res.Blocks {
		res.BlocksOrphaned = res.BlocksMined - res.Blocks
	}
	res.Rejoins = s.rejoins
	res.ResyncMs = s.resyncDone
	res.ResyncIncomplete = len(s.resyncs)
	res.Crashes = s.crashes
	res.CrashRecoveries = s.crashRecoveries
	res.RecoveredBoots = s.recoveredBoots
	res.CrashRecoveryMs = s.crashRecoveryMs
	res.SalvageTornBytes = s.salvageTorn
	res.SalvageQuarantined = s.salvageQuar
	res.SalvageCorrected = s.salvageFixed
	res.CensoredSubmitted = s.censoredSubmitted
	for _, n := range s.nodes {
		res.TxsCensored += n.CensorExcluded()
	}
	fs := s.net.FaultStats()
	res.PartitionBlocked = fs.PartitionBlocked
	res.LinkDropped = fs.LinkDropped
	res.LinkDuplicated = fs.Duplicated
	res.LinkReordered = fs.Reordered
	if s.adv != nil {
		st := s.adv.stats()
		res.AttackTxsSent = st.TxsSent
		res.ForgedBlocksSent = st.BlocksSent
	}
	res.Converged = s.convergedNow()
}
