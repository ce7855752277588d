// Package sereth is a from-scratch Go reproduction of "Read-Uncommitted
// Transactions for Smart Contract Performance" (Cook, Painter, Peterson,
// Dechev — ICDCS 2019): the Hash-Mark-Set (HMS) algorithm, Runtime
// Argument Augmentation (RAA), the Sereth contract, and the full
// Ethereum-like substrate they run on (EVM, Merkle-Patricia state,
// transaction pool, miners, simulated peer network).
//
// The root package is the public facade: it re-exports the stable
// surface of the internal subsystems so applications can build networks,
// submit transactions, read READ-UNCOMMITTED views and replay the
// paper's experiments without importing internal packages.
//
// Quick start:
//
//	net := sereth.NewNetwork(sereth.NetworkConfig{LatencyMs: 50})
//	genesis, contract := sereth.NewGenesisWithContract()
//	owner := sereth.NewKey("owner")
//	reg := sereth.NewRegistry()
//	reg.Register(owner)
//	n, err := sereth.NewNode(sereth.NodeConfig{
//		ID: 1, Mode: sereth.ModeSereth, Miner: sereth.MinerSemantic,
//		Contract: contract, Genesis: genesis, Network: net, Registry: reg,
//	})
//
// See examples/ for runnable programs and README.md for the system map.
package sereth

import (
	"bytes"

	"sereth/internal/asm"
	"sereth/internal/chain"
	"sereth/internal/hms"
	"sereth/internal/node"
	"sereth/internal/p2p"
	"sereth/internal/scenarios"
	"sereth/internal/sim"
	"sereth/internal/statedb"
	"sereth/internal/txpool"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// Core value types.
type (
	// Address is a 20-byte account identifier.
	Address = types.Address
	// Hash is a 32-byte Keccak-256 digest.
	Hash = types.Hash
	// Word is a 32-byte EVM storage/argument word.
	Word = types.Word
	// Transaction is a signed state-transition request.
	Transaction = types.Transaction
	// Block couples a header with its transaction body.
	Block = types.Block
	// Header is a block header.
	Header = types.Header
	// Receipt records the outcome of an included transaction: status,
	// gas used and return word. A block's receipts are in body order, so
	// the block gives the i-th one's transaction hash, index and number.
	Receipt = types.Receipt
	// FPV is the (flag, previousMark, value) argument tuple of HMS writes.
	FPV = types.FPV
	// AMV is the (address, mark, value) state tuple managed by HMS.
	AMV = types.AMV
	// Selector is a 4-byte ABI function selector.
	Selector = types.Selector
)

// Identity and signing.
type (
	// Key is a signing identity (see internal/wallet for the
	// deterministic keyed-hash scheme standing in for secp256k1).
	Key = wallet.Key
	// Registry verifies transaction signatures for known accounts.
	Registry = wallet.Registry
)

// Networking and nodes.
type (
	// Network is the in-process simulated peer network.
	Network = p2p.Network
	// NetworkConfig parameterizes gossip latency, loss and topology.
	NetworkConfig = p2p.Config
	// Topology selects the gossip graph (mesh, ring, random d-regular).
	Topology = p2p.Topology
	// PeerID identifies a peer.
	PeerID = p2p.PeerID
	// Node is a full validating client (Geth or Sereth mode).
	Node = node.Node
	// NodeConfigInternal is the underlying node configuration.
	NodeConfigInternal = node.Config
	// Mode selects the client type.
	Mode = node.Mode
	// MinerKind selects the mining strategy.
	MinerKind = node.MinerKind
	// ChainConfig parameterizes a chain.
	ChainConfig = chain.Config
	// StateDB is the journaled world state.
	StateDB = statedb.StateDB
)

// HMS core.
type (
	// Tracker computes Hash-Mark-Set views over a pending pool. Attach it
	// to a TxPool for incremental O(Δ) view maintenance.
	Tracker = hms.Tracker
	// TrackerConfig identifies the managed contract and selectors.
	TrackerConfig = hms.Config
	// View is a READ-UNCOMMITTED view of the managed variable.
	View = hms.View
	// TxPool is the pending transaction pool with a change feed trackers
	// subscribe to.
	TxPool = txpool.Pool
)

// NewTxPool returns an empty pending transaction pool.
func NewTxPool() *TxPool { return txpool.New() }

// Experiment harness.
type (
	// ScenarioConfig parameterizes one experiment run.
	ScenarioConfig = sim.ScenarioConfig
	// ScenarioResult aggregates one run.
	ScenarioResult = sim.Result
	// SweepPoint is one aggregated cell of a sweep: its Values hold the
	// experiment's columns (eta, eta_ci90, sets, ratio, state_tps for
	// Figure 2).
	SweepPoint = scenarios.Row
	// PopulationShape overrides a sweep's peer population and topology.
	PopulationShape = sim.Shape
)

// Client modes and miner kinds.
const (
	ModeGeth      = node.ModeGeth
	ModeSereth    = node.ModeSereth
	MinerNone     = node.MinerNone
	MinerBaseline = node.MinerBaseline
	MinerSemantic = node.MinerSemantic
)

// FPV flags.
var (
	// FlagHead marks a head-candidate transaction.
	FlagHead = types.FlagHead
	// FlagChain marks a successor transaction.
	FlagChain = types.FlagChain
)

// Sereth contract ABI.
var (
	// SelSet is the selector of set(bytes32[3]).
	SelSet = asm.SelSet
	// SelBuy is the selector of buy(bytes32[3]).
	SelBuy = asm.SelBuy
	// SelGet is the selector of get(bytes32[3]).
	SelGet = asm.SelGet
	// SelMark is the selector of mark(bytes32[3]).
	SelMark = asm.SelMark
)

// Contract storage slots (paper Listing 1 layout).
const (
	SlotAddress = asm.SlotAddress
	SlotMark    = asm.SlotMark
	SlotValue   = asm.SlotValue
	SlotNSet    = asm.SlotNSet
	SlotNBuy    = asm.SlotNBuy
)

// NewKey derives a deterministic signing key from a seed string.
func NewKey(seed string) *Key { return wallet.NewKey(seed) }

// NewRegistry returns an empty signature-verification registry.
func NewRegistry() *Registry { return wallet.NewRegistry() }

// Keccak computes the Keccak-256 digest of the concatenated inputs.
func Keccak(data ...[]byte) Hash { return types.Keccak(data...) }

// NextMark computes mark' = Keccak256(prevMark, value), the HMS chaining
// rule.
func NextMark(prevMark, value Word) Word { return types.NextMark(prevMark, value) }

// SelectorFor computes the ABI selector of a function signature string.
func SelectorFor(signature string) Selector { return types.SelectorFor(signature) }

// EncodeCall builds calldata from a selector and argument words.
func EncodeCall(sel Selector, args ...Word) []byte { return types.EncodeCall(sel, args...) }

// WordFromUint64 returns v as a big-endian storage word.
func WordFromUint64(v uint64) Word { return types.WordFromUint64(v) }

// SerethContract returns the runtime bytecode of the Sereth contract, a
// copy the caller may write.
func SerethContract() []byte { return bytes.Clone(asm.SerethContract()) }

// NewNetwork creates a simulated peer network.
func NewNetwork(cfg NetworkConfig) *Network { return p2p.NewNetwork(cfg) }

// Gossip topologies for NetworkConfig.Topology.
var (
	// MeshTopology is the one-hop full mesh (the paper rig).
	MeshTopology = p2p.Mesh
	// RingTopology relays gossip around a sorted ring.
	RingTopology = p2p.Ring
	// RandomRegularTopology is a random d-regular graph over a ring
	// backbone with multi-hop relay.
	RandomRegularTopology = p2p.RandomRegular
)

// NewStateDB returns an empty world state for genesis construction.
func NewStateDB() *StateDB { return statedb.New() }

// NewGenesisWithContract builds a genesis state with the Sereth contract
// installed at its conventional address and returns both.
func NewGenesisWithContract() (*StateDB, Address) {
	contract := Address{19: 0xcc}
	st := statedb.New()
	st.SetCode(contract, asm.SerethContract())
	return st, contract
}

// NodeConfig is the simplified public node configuration.
type NodeConfig struct {
	ID       PeerID
	Mode     Mode
	Miner    MinerKind
	Contract Address
	Genesis  *StateDB
	Network  *Network
	Registry *Registry
	// GasLimit is the block gas limit (0 = default 10M).
	GasLimit uint64
	// Seed drives miner ordering randomness.
	Seed int64
}

// NewNode builds and joins a node.
func NewNode(cfg NodeConfig) (*Node, error) {
	chainCfg := chain.DefaultConfig()
	if cfg.GasLimit > 0 {
		chainCfg.GasLimit = cfg.GasLimit
	}
	chainCfg.Registry = cfg.Registry
	return node.New(node.Config{
		ID:       cfg.ID,
		Mode:     cfg.Mode,
		Miner:    cfg.Miner,
		Contract: cfg.Contract,
		Chain:    chainCfg,
		Genesis:  cfg.Genesis,
		Network:  cfg.Network,
		Seed:     cfg.Seed,
	})
}

// NewTracker returns a standalone HMS tracker for the Sereth contract at
// the given address.
func NewTracker(contract Address) *Tracker {
	return hms.NewTracker(hms.Config{
		Contract:    contract,
		SetSelector: asm.SelSet,
		BuySelector: asm.SelBuy,
	})
}

// RunScenario executes one experiment scenario.
func RunScenario(cfg ScenarioConfig) (ScenarioResult, error) { return sim.Run(cfg) }

// OverloadScenario returns the sustained-overload configuration:
// arrival rate above block capacity into bounded evict-lowest mempools.
func OverloadScenario(seed int64) ScenarioConfig { return sim.Overload(seed) }

// Figure2Geth returns the geth_unmodified scenario at the given set count.
func Figure2Geth(sets int, seed int64) ScenarioConfig { return sim.GethUnmodified(sets, seed) }

// Figure2Sereth returns the sereth_client scenario.
func Figure2Sereth(sets int, seed int64) ScenarioConfig { return sim.SerethClient(sets, seed) }

// Figure2Semantic returns the semantic_mining scenario.
func Figure2Semantic(sets int, seed int64) ScenarioConfig { return sim.SemanticMining(sets, seed) }

// RunFigure2 sweeps the three Figure-2 scenarios over the given set
// counts and seeds, reporting each finished cell through progress (nil
// is allowed).
func RunFigure2(setCounts []int, seeds []int64, progress func(string)) ([]SweepPoint, error) {
	return scenarios.Figure2(setCounts...).Run(scenarios.Options{Seeds: seeds, Progress: progress})
}

// FormatSweep renders sweep points as an aligned table.
func FormatSweep(points []SweepPoint) string { return scenarios.FormatSweep(points) }
