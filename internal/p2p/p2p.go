// Package p2p provides an in-process simulated peer network with
// configurable gossip latency, message loss and topology, driven by a
// virtual clock. Determinism: given the same seed and event schedule,
// delivery order is identical across runs, which makes the paper's
// experiments exactly reproducible.
//
// Scheduling is a bucketed time-wheel keyed by delivery time: every
// gossip enqueues ONE shared immutable envelope carrying the full
// recipient set, instead of one heap entry (and one payload copy) per
// recipient. Each bucket is a FIFO linked through its envelopes, so
// scheduling allocates nothing, even into a bucket a fresh network has
// never used. Messages for each peer are delivered in (time, sequence)
// order — the per-peer ordered delivery the old global heap provided,
// without its O(peers × log queue) cost per gossip.
package p2p

import (
	"math/rand"
	"slices"
	"sort"
	"sync"

	"sereth/internal/types"
)

// PeerID identifies a peer on the network.
type PeerID int

// Handler receives network messages. Implementations must be safe to call
// from Network.AdvanceTo and may themselves broadcast.
type Handler interface {
	HandleTx(from PeerID, tx *types.Transaction)
	HandleBlock(from PeerID, block *types.Block)
	// HandleBlockRequest asks the peer to send blocks from the given
	// height onward back to the requester (catch-up sync after gossip
	// loss).
	HandleBlockRequest(from PeerID, fromNumber uint64)
}

// TxBatchHandler is the optional batch extension of Handler: a peer that
// implements it receives a BroadcastTxs envelope as one HandleTxs call —
// letting it admit the whole batch under a single pool lock acquisition
// (txpool.AdmitBatch) — instead of len(txs) HandleTx calls.
type TxBatchHandler interface {
	HandleTxs(from PeerID, txs []*types.Transaction)
}

// Config parameterizes the simulated network.
type Config struct {
	// LatencyMs is the one-hop gossip delay in model milliseconds.
	LatencyMs uint64
	// DropRate is the probability a unicast delivery is lost.
	DropRate float64
	// Seed drives the deterministic loss process.
	Seed int64
	// Topology restricts gossip to a neighbor graph. Nil (or any
	// non-multihop topology) is a full mesh: every broadcast reaches
	// every other peer directly, with no relaying — the behavior of the
	// original hub network. Multihop topologies relay gossip hop-by-hop
	// with per-peer duplicate suppression.
	Topology Topology
	// Faults, when non-nil, enables the fault-injection layer (per-link
	// policies, partitions, churn). Nil keeps the fast path: shared
	// envelopes, no per-link randomness, bit-identical to pre-fault
	// builds.
	Faults *FaultConfig
}

// MsgKind discriminates network message types (visible in traces).
type MsgKind uint8

// Message kinds.
const (
	MsgTx MsgKind = iota + 1
	MsgBlock
	MsgBlockRequest
	MsgTxBatch
)

func (k MsgKind) String() string {
	switch k {
	case MsgTx:
		return "tx"
	case MsgBlock:
		return "block"
	case MsgBlockRequest:
		return "blockreq"
	case MsgTxBatch:
		return "txbatch"
	default:
		return "unknown"
	}
}

// envelope is one scheduled delivery: a single immutable payload shared
// by every recipient. Broadcast payloads (tx, block) are never copied
// per recipient — receivers that need ownership copy at pool admission.
// A delivered envelope goes back to the network's free list, zeroed but
// for to's capacity, so steady-state traffic allocates no envelopes and,
// once their lists have grown, no recipient storage either.
type envelope struct {
	deliverAt uint64
	seq       uint64 // tie-break for deterministic ordering
	message
	to []PeerID // recipients in ascending id order; set once, before scheduling
	// next links the envelope into its wheel bucket while it is
	// scheduled, and into the free list once it is released.
	next *envelope
}

// message is what an envelope carries, and how it travels.
type message struct {
	kind   MsgKind
	from   PeerID
	tx     *types.Transaction
	txs    []*types.Transaction // MsgTxBatch payload, shared immutable
	block  *types.Block
	number uint64
	relay  bool       // multihop gossip: recipients re-forward on delivery
	direct bool       // point-to-point send: reliable, never dropped/duplicated
	id     types.Hash // payload identity for duplicate suppression (relay only)
}

// TraceEvent records one delivery, for determinism regression tests.
type TraceEvent struct {
	At   uint64 // model time of delivery (ms)
	Seq  uint64 // envelope sequence number
	Kind MsgKind
	From PeerID
	To   PeerID
}

// seenKey identifies a gossip a peer has already received or originated
// (multihop duplicate suppression). The filter keeps a key for at least
// seenHorizon of model time, in two generations (see seenLocked).
type seenKey struct {
	peer PeerID
	kind MsgKind
	id   types.Hash
}

// wheelBits sizes the time-wheel; slots alias modulo 2^wheelBits ms and
// are disambiguated by the exact deliverAt stored on each envelope.
const (
	wheelBits = 11
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// bucket is one wheel slot: a FIFO of scheduled envelopes linked through
// their next fields, in the order they were scheduled, which is sequence
// order.
type bucket struct {
	head, tail *envelope
}

// peerSet is an immutable snapshot of the joined peers, sorted by id.
// Join replaces it copy-on-write so deliveries resolve handlers through
// the set captured when their envelope popped, without holding the
// network lock.
type peerSet struct {
	ids   []PeerID
	hands []Handler
}

func (ps *peerSet) handler(id PeerID) Handler {
	if i, ok := slices.BinarySearch(ps.ids, id); ok {
		return ps.hands[i]
	}
	return nil
}

// Network is the simulated fabric connecting peers. Safe for concurrent
// use; experiments typically drive it from one goroutine.
type Network struct {
	cfg  Config
	topo Topology // nil for the full-mesh fast path

	mu    sync.Mutex
	peers *peerSet
	adj   map[PeerID][]PeerID // multihop adjacency, rebuilt after Join
	wheel [wheelSize]bucket
	// pending counts scheduled envelopes; nextDue is a lower bound on
	// the earliest deliverAt while pending > 0.
	pending int
	nextDue uint64
	now     uint64
	seq     uint64
	rng     *rand.Rand
	// seen and seenOld are the multihop duplicate filter's two
	// generations: a key is looked up in both and recorded in seen, and
	// seen turns into seenOld, the old one emptied, once seenHorizon has
	// passed since seenTurn. maxDelay is the longest delay an envelope
	// was scheduled with.
	seen, seenOld map[seenKey]struct{}
	seenTurn      uint64
	maxDelay      uint64
	dropped       uint64
	sent          uint64
	tracer        func(TraceEvent)
	free          *envelope // delivered envelopes, ready for reuse, linked by next

	// Fault-injection state (nil / zero unless cfg.Faults is set).
	faultRng  *rand.Rand     // dedicated stream; never aliases rng
	partition map[PeerID]int // peer -> group; nil when healed
	fstats    FaultStats
}

// NewNetwork returns an empty network at model time zero.
func NewNetwork(cfg Config) *Network {
	n := &Network{
		cfg:   cfg,
		peers: &peerSet{},
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Topology != nil && cfg.Topology.Multihop() {
		n.topo = cfg.Topology
		n.seen, n.seenOld = make(map[seenKey]struct{}), make(map[seenKey]struct{})
	}
	if cfg.Faults != nil {
		n.faultRng = rand.New(rand.NewSource(cfg.Faults.Seed))
	}
	return n
}

// Trace registers fn to observe every delivery. It must be set before
// traffic starts and fn must not call back into the network.
func (n *Network) Trace(fn func(TraceEvent)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tracer = fn
}

// Join attaches a handler under the given id, replacing any previous
// one. The sorted peer list is maintained incrementally — broadcasts
// never re-sort it.
func (n *Network) Join(id PeerID, h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	old := n.peers
	i := sort.Search(len(old.ids), func(i int) bool { return old.ids[i] >= id })
	ps := &peerSet{
		ids:   make([]PeerID, 0, len(old.ids)+1),
		hands: make([]Handler, 0, len(old.ids)+1),
	}
	ps.ids = append(ps.ids, old.ids[:i]...)
	ps.hands = append(ps.hands, old.hands[:i]...)
	if i < len(old.ids) && old.ids[i] == id { // replace in place
		ps.ids = append(ps.ids, old.ids[i:]...)
		ps.hands = append(ps.hands, old.hands[i:]...)
		ps.hands[i] = h
	} else {
		ps.ids = append(append(ps.ids, id), old.ids[i:]...)
		ps.hands = append(append(ps.hands, h), old.hands[i:]...)
	}
	n.peers = ps
	n.adj = nil // topology adjacency is rebuilt lazily on next gossip
}

// Now returns the current model time in milliseconds.
func (n *Network) Now() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now
}

// SeenKeys returns the number of (peer, payload) keys the multihop
// duplicate filter holds; 0 on a full mesh, which keeps none.
func (n *Network) SeenKeys() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.seen) + len(n.seenOld)
}

// Stats returns (delivery attempts, deliveries dropped). Each recipient
// of a broadcast counts as one attempt, as does every relay hop.
func (n *Network) Stats() (sent, dropped uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.dropped
}

// BroadcastTx gossips a transaction from the given peer, arriving after
// the configured latency. A memoized (pool-admitted) transaction is
// shared as-is with every recipient; an unmemoized one is copied ONCE
// (types.FrozenCopy) and memoized, so the caller keeps ownership of its
// instance either way.
func (n *Network) BroadcastTx(from PeerID, tx *types.Transaction) {
	if !tx.Memoized() {
		tx = types.FrozenCopy(tx).Memoize()
	}
	msg := message{kind: MsgTx, from: from, tx: tx}
	if n.topo != nil {
		msg.id = tx.Hash()
	}
	n.gossip(msg)
}

// BroadcastTxs gossips a batch of transactions as ONE envelope: one
// schedule operation, one delivery per recipient, and — for recipients
// implementing TxBatchHandler — one batched pool admission. Memoized
// transactions are shared as-is; unmemoized ones are copied once and
// frozen, exactly like BroadcastTx. The batch's multihop identity is the
// Keccak of the concatenated member hashes.
func (n *Network) BroadcastTxs(from PeerID, txs []*types.Transaction) {
	if len(txs) == 0 {
		return
	}
	if len(txs) == 1 {
		n.BroadcastTx(from, txs[0])
		return
	}
	shared := make([]*types.Transaction, len(txs))
	for i, tx := range txs {
		if !tx.Memoized() {
			tx = types.FrozenCopy(tx).Memoize()
		}
		shared[i] = tx
	}
	msg := message{kind: MsgTxBatch, from: from, txs: shared}
	if n.topo != nil {
		// Every member was frozen above, so each Hash() is a cached
		// read — the only sponge here is the one over the id buffer.
		// Flat concatenation into a single buffer absorbs to exactly
		// the same digest as the old per-member [][]byte form (ids stay
		// bit-identical across versions) without the per-member Bytes()
		// allocations.
		buf := make([]byte, 0, len(shared)*types.HashLength)
		for _, tx := range shared {
			h := tx.Hash()
			buf = append(buf, h[:]...)
		}
		msg.id = types.Keccak(buf)
	}
	n.gossip(msg)
}

// BroadcastBlock gossips a block. The block is shared, not copied.
func (n *Network) BroadcastBlock(from PeerID, block *types.Block) {
	msg := message{kind: MsgBlock, from: from, block: block}
	if n.topo != nil {
		msg.id = block.Hash()
	}
	n.gossip(msg)
}

// SendBlock delivers a block to one specific peer (sync responses).
// Direct sends are never dropped: they model a retried reliable fetch.
// They are still subject to link latency/jitter and blocked across an
// active partition.
func (n *Network) SendBlock(from, to PeerID, block *types.Block) {
	n.send(message{kind: MsgBlock, from: from, block: block, direct: true}, to)
}

// RequestBlocks asks one peer for its blocks from fromNumber onward.
func (n *Network) RequestBlocks(from, to PeerID, fromNumber uint64) {
	n.send(message{kind: MsgBlockRequest, from: from, number: fromNumber, direct: true}, to)
}

// send schedules a point-to-point message.
func (n *Network) send(msg message, to PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitionedLocked(msg.from, to) {
		n.fstats.PartitionBlocked++
		return
	}
	n.sent++
	n.scheduleLocked(n.envelopeLocked(msg, to))
}

// gossip enqueues one shared envelope for the sender's neighbor set
// (full mesh: everyone else). msg.id identifies the payload for
// multihop duplicate suppression.
func (n *Network) gossip(msg message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	env := n.envelopeLocked(msg)
	switch {
	case n.topo != nil:
		n.turnSeenLocked()
		n.seen[seenKey{peer: env.from, kind: env.kind, id: env.id}] = struct{}{}
		env.relay = true
		n.addressLocked(env, n.neighborsLocked(env.from), &env.id)
	default:
		n.addressLocked(env, n.peers.ids, nil)
	}
	if len(env.to) == 0 {
		n.releaseLocked(env)
		return
	}
	n.scheduleLocked(env)
}

// envelopeLocked returns an envelope for msg from the free list (or a
// new one), addressed to the given recipients, if any.
func (n *Network) envelopeLocked(msg message, to ...PeerID) *envelope {
	env := n.free
	if env != nil {
		n.free, env.next = env.next, nil
	} else {
		env = new(envelope)
	}
	env.message = msg
	env.to = append(env.to[:0], to...)
	return env
}

// releaseLocked returns an envelope no delivery will read again to the
// free list, dropping its references so an idle envelope pins no payload.
func (n *Network) releaseLocked(env *envelope) {
	*env = envelope{to: env.to[:0], next: n.free}
	n.free = env
}

// addressLocked addresses env to the candidates that pass the filters:
// not the sender itself, no deterministic drop, and (multihop) not
// already seen the payload. It fills env's own list, which a recycled
// envelope brings back grown. Drops consume one rng draw per attempted
// recipient, in ascending id order — the exact stream of the
// per-recipient heap implementation, so seeded runs stay bit-identical.
func (n *Network) addressLocked(env *envelope, candidates []PeerID, seenID *types.Hash) {
	from, kind, to := env.from, env.kind, env.to[:0]
	for _, r := range candidates {
		if r == from {
			continue
		}
		// Partition check first: a severed link is not a delivery attempt
		// and consumes no randomness (base or fault stream).
		if n.partition != nil && n.partitionedLocked(from, r) {
			n.fstats.PartitionBlocked++
			continue
		}
		if seenID != nil && n.seenLocked(seenKey{peer: r, kind: kind, id: *seenID}) {
			continue
		}
		n.sent++
		if n.cfg.DropRate > 0 && n.rng.Float64() < n.cfg.DropRate {
			n.dropped++
			continue
		}
		if seenID != nil {
			n.seen[seenKey{peer: r, kind: kind, id: *seenID}] = struct{}{}
		}
		to = append(to, r)
	}
	env.to = to
}

// seenHorizon is how long the duplicate filter keeps a key: longer than
// a flood can last, one hop after another along a path through every
// peer, each hop as slow as the slowest delivery scheduled so far.
func (n *Network) seenHorizon() uint64 {
	return uint64(len(n.peers.ids)+1) * (max(n.maxDelay, n.cfg.LatencyMs) + 1)
}

// turnSeenLocked starts a new generation of the duplicate filter once a
// horizon has passed since the last: every key of the older generation
// was recorded at least a horizon ago, when the flood that recorded it
// began, so no copy of its payload is still in flight.
func (n *Network) turnSeenLocked() {
	if n.now-n.seenTurn < n.seenHorizon() {
		return
	}
	clear(n.seenOld)
	n.seen, n.seenOld, n.seenTurn = n.seenOld, n.seen, n.now
}

// seenLocked reports whether the filter holds k.
func (n *Network) seenLocked(k seenKey) bool {
	if _, ok := n.seen[k]; ok {
		return true
	}
	_, ok := n.seenOld[k]
	return ok
}

// neighborsLocked returns the sender's neighbor list under the active
// topology, rebuilding the cached adjacency after membership changes.
func (n *Network) neighborsLocked(of PeerID) []PeerID {
	if n.adj == nil {
		n.adj = n.topo.Build(n.peers.ids)
	}
	return n.adj[of]
}

func (n *Network) scheduleLocked(env *envelope) {
	if n.cfg.Faults != nil {
		n.scheduleFaultyLocked(env)
		return
	}
	n.enqueueLocked(env, n.cfg.LatencyMs)
}

// enqueueLocked places an envelope on the time-wheel for delivery after
// the given delay.
func (n *Network) enqueueLocked(env *envelope, delay uint64) {
	n.maxDelay = max(n.maxDelay, delay)
	env.deliverAt = n.now + delay
	env.seq = n.seq
	n.seq++
	if n.pending == 0 || env.deliverAt < n.nextDue {
		n.nextDue = env.deliverAt
	}
	n.pending++
	b := &n.wheel[env.deliverAt&wheelMask]
	if b.tail == nil {
		b.head = env
	} else {
		b.tail.next = env
	}
	b.tail = env
}

// popDueLocked removes and returns the earliest envelope due at or
// before t, together with the peer set its recipients' handlers resolve
// in, advancing model time to its delivery instant. Within one delivery
// time, envelopes pop in sequence order: a bucket is a FIFO, and the
// first of its envelopes due at an instant is the earliest scheduled.
func (n *Network) popDueLocked(t uint64) (*envelope, *peerSet, bool) {
	if n.pending == 0 {
		return nil, nil, false
	}
	cursor := n.nextDue
	if cursor < n.now {
		cursor = n.now
	}
	for ; cursor <= t; cursor++ {
		b := &n.wheel[cursor&wheelMask]
		var prev *envelope
		for env := b.head; env != nil; prev, env = env, env.next {
			if env.deliverAt != cursor {
				continue // a later wheel revolution shares this slot
			}
			if prev == nil {
				b.head = env.next
			} else {
				prev.next = env.next
			}
			if b.tail == env {
				b.tail = prev
			}
			env.next = nil
			n.pending--
			n.nextDue = cursor
			if cursor > n.now {
				n.now = cursor
			}
			return env, n.peers, true
		}
	}
	n.nextDue = cursor // every pending envelope is beyond t
	return nil, nil, false
}

// AdvanceTo moves model time forward to t (ms), delivering every message
// scheduled at or before t in deterministic order. Handlers invoked
// during delivery may enqueue further messages; those are delivered too
// if they fall within the window.
func (n *Network) AdvanceTo(t uint64) { n.deliverDue(t, true) }

// Drain delivers every queued message regardless of timestamps, advancing
// the clock as needed. Useful at the end of an experiment.
func (n *Network) Drain() { n.deliverDue(^uint64(0), false) }

// deliverDue delivers every envelope due at or before t, one at a time
// outside the lock, releasing each when the next is popped; advance
// then moves the clock to t.
func (n *Network) deliverDue(t uint64, advance bool) {
	var done *envelope
	for {
		n.mu.Lock()
		if done != nil {
			n.releaseLocked(done)
		}
		env, ps, ok := n.popDueLocked(t)
		if !ok {
			if advance && t > n.now {
				n.now = t // time only moves forward
			}
			n.mu.Unlock()
			return
		}
		tracer := n.tracer
		n.mu.Unlock()
		n.deliver(env, ps, tracer)
		done = env
	}
}

// deliver invokes each recipient's handler in recipient order and, for
// multihop gossip, forwards the shared payload one hop further. A
// recipient missing from ps left (churn) after the send was scheduled.
func (n *Network) deliver(env *envelope, ps *peerSet, tracer func(TraceEvent)) {
	for _, to := range env.to {
		h := ps.handler(to)
		if h == nil {
			continue
		}
		if tracer != nil {
			tracer(TraceEvent{At: env.deliverAt, Seq: env.seq, Kind: env.kind, From: env.from, To: to})
		}
		switch env.kind {
		case MsgTx:
			h.HandleTx(env.from, env.tx)
		case MsgTxBatch:
			if bh, ok := h.(TxBatchHandler); ok {
				bh.HandleTxs(env.from, env.txs)
			} else {
				for _, tx := range env.txs {
					h.HandleTx(env.from, tx)
				}
			}
		case MsgBlock:
			h.HandleBlock(env.from, env.block)
		case MsgBlockRequest:
			h.HandleBlockRequest(env.from, env.number)
		}
		if env.relay {
			n.relayFrom(to, env)
		}
	}
}

// relayFrom forwards a multihop gossip from a peer that just received it
// to that peer's not-yet-reached neighbors.
func (n *Network) relayFrom(from PeerID, env *envelope) {
	n.mu.Lock()
	defer n.mu.Unlock()
	msg := env.message
	msg.from = from
	fwd := n.envelopeLocked(msg)
	n.turnSeenLocked()
	n.addressLocked(fwd, n.neighborsLocked(from), &fwd.id)
	if len(fwd.to) == 0 {
		n.releaseLocked(fwd)
		return
	}
	n.scheduleLocked(fwd)
}
