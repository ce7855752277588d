package p2p

// LinkPolicy describes the fault behavior of one directed link. The zero
// value is a perfect link: no extra latency, no jitter, no loss, no
// duplication, no reordering.
type LinkPolicy struct {
	// ExtraLatencyMs is added to the network's base LatencyMs on this
	// link (heterogeneous links: a slow transatlantic hop next to a fast
	// datacenter one).
	ExtraLatencyMs uint64
	// JitterMs adds a uniform random delay in [0, JitterMs) per delivery.
	JitterMs uint64
	// DropRate is the probability a gossip delivery on this link is lost.
	// Direct sends (SendBlock, RequestBlocks) are never dropped — they
	// model a retried reliable fetch — but do experience latency and
	// jitter.
	DropRate float64
	// DuplicateRate is the probability a gossip delivery arrives twice.
	DuplicateRate float64
	// ReorderRate is the probability a gossip delivery is delayed by
	// ReorderDelayMs, letting later traffic overtake it.
	ReorderRate float64
	// ReorderDelayMs is the extra delay applied to reordered deliveries.
	ReorderDelayMs uint64
}

// zero reports whether the policy is a perfect link.
func (p LinkPolicy) zero() bool {
	return p == LinkPolicy{}
}

// FaultConfig enables the network's fault-injection layer. All fault
// randomness (drop coin-flips, jitter, duplication, reordering) is drawn
// from a dedicated RNG seeded by Seed, NEVER from the network's base
// RNG — so a run with a zero-valued Default policy and no PolicyFor
// consumes exactly the same base-RNG stream as a run with Faults == nil,
// keeping the golden-seed scenarios bit-identical.
type FaultConfig struct {
	// Seed drives the dedicated fault RNG. Derive it from the scenario
	// seed via a namespaced sub-seed so fault draws never perturb other
	// randomness streams.
	Seed int64
	// Default is the policy applied to every link.
	Default LinkPolicy
	// PolicyFor, when non-nil, overrides Default per directed link —
	// heterogeneous topologies (one lossy peer, one slow region).
	PolicyFor func(from, to PeerID) LinkPolicy
}

func (f *FaultConfig) policyFor(from, to PeerID) LinkPolicy {
	if f.PolicyFor != nil {
		return f.PolicyFor(from, to)
	}
	return f.Default
}

// FaultStats counts fault-layer interventions.
type FaultStats struct {
	// LinkDropped counts gossip deliveries lost to LinkPolicy.DropRate.
	LinkDropped uint64
	// Duplicated counts extra deliveries injected by DuplicateRate.
	Duplicated uint64
	// Reordered counts deliveries delayed by ReorderRate.
	Reordered uint64
	// PartitionBlocked counts deliveries suppressed because sender and
	// recipient were in different partition groups.
	PartitionBlocked uint64
}

// FaultStats returns the fault-layer counters.
func (n *Network) FaultStats() FaultStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fstats
}

// SetPartition cuts the network into isolated groups: a delivery is
// allowed only when sender and recipient appear in the same group. Peers
// listed in no group are isolated from everyone. Direct sends are
// blocked across the cut too — a partition severs all transport.
// In-flight envelopes already scheduled before the cut still deliver
// (they were on the wire).
func (n *Network) SetPartition(groups [][]PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	part := make(map[PeerID]int, len(n.peers.ids))
	for g, members := range groups {
		for _, id := range members {
			part[id] = g
		}
	}
	n.partition = part
}

// ClearPartition heals a partition: all links are restored.
func (n *Network) ClearPartition() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = nil
}

// partitionedLocked reports whether the active partition (if any)
// separates from and to. Consumes no randomness.
func (n *Network) partitionedLocked(from, to PeerID) bool {
	if n.partition == nil {
		return false
	}
	gf, okf := n.partition[from]
	gt, okt := n.partition[to]
	return !okf || !okt || gf != gt
}

// Leave detaches a peer: it stops receiving deliveries (in-flight
// envelopes addressed to it are silently discarded, modeling a crash)
// and multihop topologies are rebuilt without it. Re-Join with the same
// id brings the peer back; catch-up is the node's job (RequestBlocks).
func (n *Network) Leave(id PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	old := n.peers
	i := 0
	for ; i < len(old.ids); i++ {
		if old.ids[i] == id {
			break
		}
	}
	if i == len(old.ids) {
		return // not joined
	}
	ps := &peerSet{
		ids:   make([]PeerID, 0, len(old.ids)-1),
		hands: make([]Handler, 0, len(old.ids)-1),
	}
	ps.ids = append(append(ps.ids, old.ids[:i]...), old.ids[i+1:]...)
	ps.hands = append(append(ps.hands, old.hands[:i]...), old.hands[i+1:]...)
	n.peers = ps
	n.adj = nil // topology adjacency is rebuilt lazily on next gossip
}

// scheduleFaultyLocked is the fault-layer counterpart of scheduleLocked:
// instead of one shared envelope it fans out one single-recipient
// envelope per recipient, sharing the immutable payload, so each link
// can apply its own policy. Per recipient (in ascending id order,
// matching addressLocked) the draw order from the fault RNG is fixed:
// drop, jitter, reorder, duplicate — any fixed order works, but it must
// never change, or seeded chaos runs lose reproducibility.
func (n *Network) scheduleFaultyLocked(env *envelope) {
	// With a perfect policy on every link the fan-out is pointless:
	// enqueue the shared envelope exactly like the plain path, so a
	// zero-policy fault layer is bit-identical to no fault layer at all
	// (same delivery order AND same envelope sequence numbers).
	allZero := true
	for _, r := range env.to {
		if !n.cfg.Faults.policyFor(env.from, r).zero() {
			allZero = false
			break
		}
	}
	if allZero {
		n.enqueueLocked(env, n.cfg.LatencyMs)
		return
	}
	defer n.releaseLocked(env) // every recipient gets its own clone
	for _, r := range env.to {
		pol := n.cfg.Faults.policyFor(env.from, r)
		if pol.zero() {
			n.enqueueLocked(n.envelopeLocked(env.message, r), n.cfg.LatencyMs)
			continue
		}
		if !env.direct && pol.DropRate > 0 && n.faultRng.Float64() < pol.DropRate {
			n.fstats.LinkDropped++
			n.dropped++
			continue
		}
		delay := n.cfg.LatencyMs + pol.ExtraLatencyMs
		if pol.JitterMs > 0 {
			delay += uint64(n.faultRng.Int63n(int64(pol.JitterMs)))
		}
		if !env.direct && pol.ReorderRate > 0 && n.faultRng.Float64() < pol.ReorderRate {
			n.fstats.Reordered++
			delay += pol.ReorderDelayMs
		}
		n.enqueueLocked(n.envelopeLocked(env.message, r), delay)
		if !env.direct && pol.DuplicateRate > 0 && n.faultRng.Float64() < pol.DuplicateRate {
			n.fstats.Duplicated++
			n.sent++
			n.enqueueLocked(n.envelopeLocked(env.message, r), delay)
		}
	}
}
