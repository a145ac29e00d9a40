package netem

import (
	"slices"

	"tcppr/internal/sim"
)

// DropCause says why a packet died on a link. Every drop path reports a
// distinct cause, matching the per-cause LinkStats counters, so traces and
// metrics can attribute losses instead of lumping them together.
type DropCause uint8

const (
	// DropNone is the zero value; no drop happened.
	DropNone DropCause = iota
	// DropQueueFull is a drop-tail rejection: the queue already held
	// QueueCap packets (LinkStats.Dropped).
	DropQueueFull
	// DropRED is a probabilistic early drop by the link's RED controller
	// (LinkStats.REDDropped).
	DropRED
	// DropLoss is a loss-process kill — SetLoss / SetLossModel
	// (LinkStats.RandomDropped).
	DropLoss
	// DropBlackout is a rejection while the link was administratively down
	// (LinkStats.BlackoutDropped).
	DropBlackout
	// DropCorrupt is a checksum discard at the far end of the link
	// (LinkStats.Corrupted).
	DropCorrupt
	// DropHostDown is a kill because an endpoint of the link is a downed
	// host (Node.SetDown): rejected at enqueue when either end is already
	// down, or destroyed on delivery when the host died while the packet
	// was queued or in flight (LinkStats.HostDownDropped).
	DropHostDown
	// DropRepairOverflow is a kill by a reorder-repair middlebox whose
	// buffer caps were exhausted under the RepairDrop overflow policy
	// (LinkStats.RepairDropped).
	DropRepairOverflow
)

// String returns the cause's stable label, used as a span attribute and in
// flight-recorder dumps.
func (c DropCause) String() string {
	switch c {
	case DropNone:
		return "none"
	case DropQueueFull:
		return "queue-full"
	case DropRED:
		return "red-early"
	case DropLoss:
		return "loss"
	case DropBlackout:
		return "blackout"
	case DropCorrupt:
		return "corrupt"
	case DropHostDown:
		return "host_down"
	case DropRepairOverflow:
		return "repair-overflow"
	}
	return "unknown"
}

// Observer receives the full per-packet lifecycle of a network: injection,
// queueing, serialization, propagation, delivery, middlebox custody, and
// death. It is the packet layer's only observation seam: internal/span and
// the invariant checker both subscribe through Network.Observe. With no
// subscriber each event costs one range over an empty slice on the hot
// path (the same contract as the pool debug checks), so detached runs keep
// the 0 allocs/op forwarding path.
//
// Callbacks run synchronously inside the simulation; implementations must
// not retain packet pointers beyond the call (the pool ownership contract)
// and must not mutate the network.
type Observer interface {
	// PacketSent fires when Network.Send accepts a packet, after its ID,
	// Trace, and SentAt are assigned and before the first hop sees it.
	PacketSent(p *Packet)
	// PacketEnqueued fires when a link accepts a packet into its output
	// queue, with the committed schedule: serialization [txStart, txEnd]
	// and arrival at the far end (txEnd + propagation + jitter draw). The
	// queue slot frees at txEnd with no notification of its own: no event
	// fires then (see Link.settle).
	PacketEnqueued(l *Link, p *Packet, txStart, txEnd, arrive sim.Time)
	// PacketDelivered fires when the link hands the packet to the
	// downstream node; the packet still reads as being on this link.
	PacketDelivered(l *Link, p *Packet)
	// PacketDropped fires when a packet dies on this link, with the cause.
	PacketDropped(l *Link, p *Packet, cause DropCause)
	// PacketDuplicated fires when the link's duplication impairment emits
	// an extra copy: dup carries a fresh Trace with Parent = orig.Trace and
	// shares the original's arrival schedule.
	PacketDuplicated(l *Link, orig, dup *Packet, txEnd, arrive sim.Time)
	// PacketRepair fires once per middlebox custody transition on the
	// link's repair box, with the custody duration on releases (0 on holds).
	PacketRepair(l *Link, p *Packet, action RepairAction, heldFor sim.Time)
}

// Observe subscribes o to the lifecycle of every packet on the network,
// on every existing link and on links added later. Subscribers hear each
// event in subscription order. Subscribe after the topology is built,
// before the clock runs.
func (n *Network) Observe(o Observer) {
	n.obs = append(slices.Clip(n.obs), o)
	for _, l := range n.links {
		l.obs = n.obs
	}
}
