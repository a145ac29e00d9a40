package netem

import (
	"fmt"
	"math/rand"
	"time"

	"tcppr/internal/sim"
)

// LinkStats counts what happened on one unidirectional link.
type LinkStats struct {
	// Enqueued is the number of packets accepted into the output queue.
	Enqueued uint64
	// Dropped is the number of packets rejected because the queue was full.
	Dropped uint64
	// REDDropped is the number of packets probabilistically rejected by the
	// link's RED controller before the drop-tail capacity check (distinct
	// from Dropped so active-queue-management losses stay attributable).
	REDDropped uint64
	// RandomDropped is the number of packets lost to the configured
	// loss process (SetLoss / SetLossModel) rather than queue overflow.
	RandomDropped uint64
	// BlackoutDropped is the number of packets offered while the link was
	// administratively down (SetDown).
	BlackoutDropped uint64
	// Corrupted is the number of packets that traversed the link but were
	// discarded at the far end with a broken checksum (a Corruption impairment).
	Corrupted uint64
	// HostDownDropped is the number of packets killed because an endpoint
	// host of this link was down (Node.SetDown): rejections at enqueue plus
	// in-flight packets destroyed on delivery.
	HostDownDropped uint64
	// Duplicated is the number of extra packet copies the link delivered
	// (a Duplication impairment); each copy also counts in Delivered.
	Duplicated uint64
	// ReorderHeld is the number of packets the reorder model took custody
	// of (SetReorderModel); ReorderReleased the number it handed back.
	// Held − Released is the model's current custody count, audited by
	// the invariant checker: reordering delays packets but must conserve
	// them.
	ReorderHeld     uint64
	ReorderReleased uint64
	// ReorderDelayed is the number of pass-through packets whose release
	// the reorder model pushed past their nominal arrival (striping
	// detours, batch spacing) without taking custody.
	ReorderDelayed uint64
	// RepairHeld is the number of packets the repair middlebox took
	// custody of (SetRepair); RepairReleased the number it handed back
	// (gap filled, hold timeout, eviction, or Flush). Held − Released is
	// the box's live custody count, audited by the invariant checker's
	// repair-ledger rule. RepairDropped counts would-hold packets the box
	// dropped under cap pressure (RepairDrop overflow policy).
	RepairHeld     uint64
	RepairReleased uint64
	RepairDropped  uint64
	// Dequeued is the number of packets whose serialization completed,
	// freeing their queue slot.
	Dequeued uint64
	// Delivered is the number of packets handed to the downstream node.
	Delivered uint64
	// Bytes is the total payload delivered, in bytes.
	Bytes uint64
	// MaxQueue is the high-water mark of the queue occupancy in packets.
	MaxQueue int
}

// DropRate returns the fraction of offered packets that were lost on this
// link: queue overflow, random loss, blackout rejections, corruption, and
// host-down kills. HostDownDropped mixes enqueue rejections (offered here)
// with in-flight kills (already counted in Enqueued), so offered slightly
// overcounts while a host fault is active; the rate stays a faithful
// "fraction of traffic this link destroyed" either way.
func (s LinkStats) DropRate() float64 {
	offered := s.Enqueued + s.Dropped + s.REDDropped + s.RandomDropped + s.BlackoutDropped + s.HostDownDropped
	if offered == 0 {
		return 0
	}
	lost := s.Dropped + s.REDDropped + s.RandomDropped + s.BlackoutDropped + s.Corrupted + s.HostDownDropped + s.RepairDropped
	return float64(lost) / float64(offered)
}

// departure is the scheduler key of one serialization completion.
type departure struct {
	at  sim.Time
	seq uint64
}

// Link is a unidirectional store-and-forward link with a drop-tail FIFO
// output queue, matching the ns-2 DropTail/DelayLink pair the paper used.
//
// A packet occupies one queue slot from the moment it is enqueued until its
// serialization onto the wire completes. If the queue already holds
// QueueCap packets the new packet is dropped (drop-tail). After
// serialization (Size*8/Bandwidth) the packet propagates for Delay and is
// delivered to the To node.
//
// Bandwidth, Delay, QueueCap, and the loss process may all change mid-run
// (see SetBandwidth and friends); fault timelines in internal/faults drive
// these setters at scheduled virtual times. Parameter changes affect only
// packets enqueued afterwards — anything already serialized or propagating
// keeps the schedule it was committed to, so a delay *decrease* reorders
// the packets that straddle it, exactly like a route change would.
type Link struct {
	// Name identifies the link in traces, e.g. "r0->r1".
	Name string
	// From and To are the link endpoints.
	From, To *Node
	// Bandwidth is the serialization rate in bits per second. Mutate only
	// through SetBandwidth: the link remembers serialization times.
	Bandwidth int64
	// Delay is the propagation delay. Mutate only through SetDelay once
	// the simulation is running.
	Delay time.Duration
	// QueueCap is the output-queue capacity in packets, counting the
	// packet currently being serialized (ns-2 convention). Mutate only
	// through SetQueueCap once the simulation is running.
	QueueCap int

	sched     *sim.Scheduler
	net       *Network
	obs       []Observer
	busyUntil sim.Time
	stats     LinkStats
	down      bool

	// A packet leaves the queue when its serialization completes, and
	// nothing else happens then, so no event fires for it: Enqueue commits
	// the key (finish, sequence number) such an event would have had, and
	// settle retires every key the scheduler has passed before anyone looks
	// at the occupancy. departs is a ring of the keys not yet retired,
	// oldest first — finish times never decrease and sequence numbers grow,
	// so it is sorted — and queueLen, the occupancy, is how many it holds.
	// Its length is a power of two, or zero before the link's first packet.
	departs  []departure
	depHead  int
	queueLen int

	// deliverFn is the bound deliverEvent method value, created once, at
	// the link's first packet (see bind), so the per-packet delivery event
	// captures nothing and an idle link costs its builder no allocation.
	deliverFn func(any)
	// A drop-tail link delivers in FIFO order, so its arrivals are a
	// sim.Lane — one scheduler entry however many packets are propagating.
	// Arrivals that are out of order (a jitter draw, a detour, a shortened
	// delay) become ordinary events inside Lane.At.
	deliveries sim.Lane

	// txSize → txDur is the last TxTime computed (0 → 0 when none);
	// SetBandwidth resets it.
	txSize int
	txDur  time.Duration

	loss    LossModel
	impair  Impairment
	reorder ReorderModel
	heldNow int
	repair  *RepairBox
	red     *RED
}

// SetLoss configures independent per-packet random loss with the given
// probability in [0, 1], modeling a lossy (e.g. wireless) medium.
// Probability 0 disables the loss process; probability 1 is total loss
// (every offered packet dies — the building block of loss-ramp fault
// timelines). The RNG must come from sim.NewRand so runs stay
// deterministic; it may be nil for the degenerate probabilities 0 and 1.
func (l *Link) SetLoss(prob float64, rng *rand.Rand) {
	if prob == 0 {
		l.loss = nil
		return
	}
	l.loss = NewIIDLoss(prob, rng)
}

// SetLossModel installs an arbitrary loss process (nil disables). The
// i.i.d. model SetLoss builds and the Gilbert–Elliott burst model in
// internal/faults are the shipped implementations.
func (l *Link) SetLossModel(m LossModel) { l.loss = m }

// LossModel returns the installed loss process, or nil.
func (l *Link) LossModel() LossModel { return l.loss }

// SetImpairment installs the link's per-packet impairment process (nil
// disables): jitter, corruption, and duplication are the shipped
// implementations. The model is consulted once
// per accepted packet, in arrival order, immediately after queue
// admission.
func (l *Link) SetImpairment(m Impairment) { l.impair = m }

// SetReorderModel installs the link's packet-reordering process (nil
// disables) and binds it to this link as its ReleaseSink. Swapping
// models while packets are in the old model's custody would strand them,
// so it panics; install models before traffic or between drained runs.
func (l *Link) SetReorderModel(m ReorderModel) {
	if l.heldNow > 0 {
		panic(fmt.Sprintf("netem: cannot swap reorder model on %s while %d packets are held", l, l.heldNow))
	}
	l.reorder = m
	if m != nil {
		m.Bind(l)
	}
}

// ReorderModel returns the installed reordering process, or nil.
func (l *Link) ReorderModel() ReorderModel { return l.reorder }

// SetRepair installs (or, with nil, removes) a reorder-repair middlebox
// at the far end of the link: it intercepts delivery after corruption
// and host-fault checks, so it sits downstream of any reordering element
// — the "repair box at the reorder point" placement. Swapping boxes
// while the old one holds packets would strand them, so it panics;
// install between drained runs or Flush first.
func (l *Link) SetRepair(b *RepairBox) {
	if l.repair != nil && l.repair.heldNow > 0 {
		panic(fmt.Sprintf("netem: cannot swap repair box on %s while %d packets are held", l, l.repair.heldNow))
	}
	l.repair = b
	if b != nil {
		b.bind(l)
	}
}

// Repair returns the installed reorder-repair middlebox, or nil.
func (l *Link) Repair() *RepairBox { return l.repair }

// RepairHeldNow returns how many packets the repair middlebox currently
// holds in custody, or 0 when no box is attached.
func (l *Link) RepairHeldNow() int {
	if l.repair == nil {
		return 0
	}
	return l.repair.heldNow
}

// ReorderHeldNow returns how many packets the reorder model currently
// holds in custody (accepted, serialized, but not yet released for
// delivery).
func (l *Link) ReorderHeldNow() int { return l.heldNow }

// Release implements ReleaseSink: the reorder model hands back a packet
// it held, to be delivered at the given time (clamped to now). Releasing
// more packets than are held is a model bug and panics — the custody
// ledger must balance.
func (l *Link) Release(p *Packet, at sim.Time) {
	if l.heldNow <= 0 {
		panic(fmt.Sprintf("netem: reorder model on %s released a packet it does not hold", l))
	}
	l.heldNow--
	l.stats.ReorderReleased++
	if now := l.sched.Now(); at < now {
		at = now
	}
	l.sched.AtFunc(at, l.deliverFn, p)
}

// Scheduler implements ReleaseSink, exposing the link's scheduler for
// model-owned timers.
func (l *Link) Scheduler() *sim.Scheduler { return l.sched }

// SetDown takes the link administratively down (true) or back up (false),
// modeling a blackout: while down, every offered packet is rejected and
// counted in BlackoutDropped. Packets already accepted — queued,
// serializing, or propagating — were on the wire before the cut and still
// deliver; only new enqueues die. Bringing a link back up requires no
// other reset: the serializer restarts with the first accepted packet.
func (l *Link) SetDown(down bool) { l.down = down }

// IsDown reports whether the link is administratively down.
func (l *Link) IsDown() bool { return l.down }

// SetBandwidth changes the serialization rate mid-run. Packets already
// being serialized finish at their committed time; the new rate applies
// from the next enqueue.
func (l *Link) SetBandwidth(bps int64) {
	if bps <= 0 {
		panic(fmt.Sprintf("netem: link %s bandwidth set to non-positive %d", l, bps))
	}
	l.Bandwidth = bps
	l.txSize, l.txDur = 0, 0
}

// SetDelay changes the propagation delay mid-run. In-flight packets keep
// the delay they departed with, so a decrease reorders packets across the
// step — the route-shortening event the paper's §1 motivates.
func (l *Link) SetDelay(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("netem: link %s delay set to negative %v", l, d))
	}
	l.Delay = d
}

// SetQueueCap changes the queue capacity mid-run. Shrinking below the
// current occupancy drops nothing — already-accepted packets drain
// normally — but rejects new arrivals until the queue falls under the new
// capacity.
func (l *Link) SetQueueCap(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("netem: link %s queue capacity set to non-positive %d", l, n))
	}
	l.QueueCap = n
}

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats {
	l.settle()
	return l.stats
}

// QueueLen returns the instantaneous queue occupancy in packets.
func (l *Link) QueueLen() int {
	l.settle()
	return l.queueLen
}

// settle frees the queue slot of every packet whose serialization has
// completed: its departure key sorts before that of the event now firing,
// which is exactly when an event scheduled for the departure would have
// run. Everything that reads or changes the occupancy settles first.
func (l *Link) settle() {
	for l.queueLen > 0 {
		d := l.departs[l.depHead]
		if !l.sched.Passed(d.at, d.seq) {
			return
		}
		l.depHead = (l.depHead + 1) & (len(l.departs) - 1)
		l.queueLen--
		l.stats.Dequeued++
	}
}

// TxTime returns the serialization time for a packet of the given size.
// A link carries one or two packet sizes, so the last answer is kept.
func (l *Link) TxTime(bytes int) time.Duration {
	if bytes != l.txSize {
		l.txSize = bytes
		l.txDur = time.Duration(float64(bytes*8) / float64(l.Bandwidth) * float64(time.Second))
	}
	return l.txDur
}

// Enqueue offers a packet to the link's output queue. It returns false if
// the packet was dropped (link down, loss process, or queue full). On
// success the packet will be delivered to the downstream node after
// queueing, serialization, and propagation delays.
func (l *Link) Enqueue(p *Packet) bool {
	// A downed endpoint kills traffic before any impairment draw: a dead
	// From can't transmit and a dead To's access link rejects, and neither
	// consumes loss-model RNG, so bringing a host down never perturbs the
	// random streams of the surviving traffic.
	if l.From.down || l.To.down {
		l.stats.HostDownDropped++
		l.drop(p, DropHostDown)
		return false
	}
	if l.down {
		l.stats.BlackoutDropped++
		l.drop(p, DropBlackout)
		return false
	}
	if l.loss != nil && l.loss.Drop(p.Size) {
		l.stats.RandomDropped++
		l.drop(p, DropLoss)
		return false
	}
	l.settle()
	if l.red != nil && !l.red.Admit(l.queueLen) {
		l.stats.REDDropped++
		l.drop(p, DropRED)
		return false
	}
	if l.queueLen >= l.QueueCap {
		l.stats.Dropped++
		l.drop(p, DropQueueFull)
		return false
	}
	now := l.sched.Now()
	p.enqueuedAt = now
	start := l.busyUntil
	if start < now {
		start = now
	}
	finish := start + l.TxTime(p.Size)
	l.busyUntil = finish

	// The queue slot frees when serialization completes (settle); the
	// packet arrives one propagation delay (plus any jitter draw) later, on
	// the link's lane with a closure-free callback, so steady-state
	// forwarding schedules without allocating.
	if l.queueLen == len(l.departs) {
		l.growDeparts()
	}
	l.departs[(l.depHead+l.queueLen)&(len(l.departs)-1)] = departure{at: finish, seq: l.sched.Stamp()}
	l.queueLen++
	l.stats.Enqueued++
	if l.queueLen > l.stats.MaxQueue {
		l.stats.MaxQueue = l.queueLen
	}
	if l.deliverFn == nil {
		l.bind()
	}
	// Impairment draws happen at enqueue time, in arrival order, so the
	// RNG streams are consumed deterministically regardless of how the
	// delivery events interleave with other links' traffic. The corruption
	// verdict rides on the packet itself.
	var eff Effect
	if l.impair != nil {
		eff = l.impair.Apply(p.Size)
	}
	arrive := finish + l.Delay + sim.Time(eff.ExtraDelay)
	p.corrupt = eff.Corrupt
	for _, o := range l.obs {
		o.PacketEnqueued(l, p, start, finish, arrive)
	}
	// The reorder model, if any, decides the release: immediately (with a
	// possibly detoured release time) or by taking custody. The hold
	// happens after serialization, modeling reordering in the far-end
	// element (NIC coalescing, parallel sub-paths), so queue-slot
	// accounting is untouched.
	if l.reorder != nil {
		rel, held := l.reorder.Admit(p, arrive)
		if held {
			l.heldNow++
			l.stats.ReorderHeld++
		} else {
			if rel < arrive {
				rel = arrive // models may delay, never deliver early
			} else if rel > arrive {
				l.stats.ReorderDelayed++
			}
			arrive = rel
			l.deliveries.At(arrive, p)
		}
	} else {
		l.deliveries.At(arrive, p)
	}
	if eff.Duplicate {
		// The duplicate bypasses the reorder model: a link-layer repeat
		// arrives at the original's release time when that is already
		// known, or at the nominal arrival if the model took custody.
		l.stats.Duplicated++
		dup := l.newPacket()
		*dup = *p
		if c, ok := p.Payload.(payloadCloner); ok {
			dup.Payload = c.ClonePayload()
		}
		dup.corrupt = false
		if l.net != nil {
			dup.Parent = p.Trace
			dup.Trace = l.net.newTraceID()
		}
		for _, o := range l.obs {
			o.PacketDuplicated(l, p, dup, finish, arrive)
		}
		l.deliveries.At(arrive, dup)
	}
	return true
}

// bind readies the link's delivery callback and lane at its first packet.
func (l *Link) bind() {
	l.deliverFn = l.deliverEvent
	l.deliveries.Init(l.sched, l.deliverFn)
}

// departsMin is the length of a link's first departure ring: 128 bytes,
// enough for a link that never queues deeper than its access rate allows.
const departsMin = 8

// growDeparts moves the departure keys to a ring twice as long, oldest
// first.
func (l *Link) growDeparts() {
	ring := make([]departure, max(2*len(l.departs), departsMin))
	k := copy(ring, l.departs[l.depHead:])
	copy(ring[k:], l.departs[:l.depHead])
	l.departs, l.depHead = ring, 0
}

// deliverEvent adapts deliver to the scheduler's closure-free callback
// shape; it is bound once per link as deliverFn.
func (l *Link) deliverEvent(arg any) { l.deliver(arg.(*Packet)) }

// deliver completes one packet's traversal: corrupted packets die at the
// far end (counted, reported as drops, recycled); clean packets are handed
// to the downstream node.
func (l *Link) deliver(p *Packet) {
	// A host fault mid-flight destroys the packet at delivery time: queued
	// and propagating packets of a crashed endpoint never arrive (its NIC
	// queue is flushed, its inbound frames have no one to receive them).
	if l.From.down || l.To.down {
		l.stats.HostDownDropped++
		l.drop(p, DropHostDown)
		l.recycle(p)
		return
	}
	if p.corrupt {
		l.stats.Corrupted++
		l.drop(p, DropCorrupt)
		l.recycle(p)
		return
	}
	// The repair middlebox, if any, may consume the packet here: take
	// custody of it, deliver it (plus a repaired run) itself, or drop it
	// under cap pressure. A nil box costs one branch, keeping detached
	// forwarding at 0 allocs/op.
	if l.repair != nil && l.repair.offer(p) {
		return
	}
	l.finishDeliver(p)
}

// finishDeliver is the unconditional tail of delivery: counters, observer
// notifications, and the hand-off to the downstream node.
// The repair middlebox releases held packets through it directly, so a
// repaired packet is delivered exactly once and never re-intercepted.
func (l *Link) finishDeliver(p *Packet) {
	l.stats.Delivered++
	l.stats.Bytes += uint64(p.Size)
	for _, o := range l.obs {
		o.PacketDelivered(l, p)
	}
	p.advance()
	l.To.receive(p)
}

// drop reports one packet death to the observers; the per-cause stats
// counter is incremented at the call site.
func (l *Link) drop(p *Packet, cause DropCause) {
	for _, o := range l.obs {
		o.PacketDropped(l, p, cause)
	}
}

// newPacket draws a packet from the owning network's pool; hand-built
// links fall back to plain allocation.
func (l *Link) newPacket() *Packet {
	if l.net != nil {
		return l.net.NewPacket()
	}
	return &Packet{}
}

// recycle returns a dead packet to the owning network's pool, if any.
func (l *Link) recycle(p *Packet) {
	if l.net != nil {
		l.net.release(p)
	}
}

func (l *Link) String() string {
	if l.Name != "" {
		return l.Name
	}
	return fmt.Sprintf("%s->%s", l.From.Name, l.To.Name)
}
