package tcp

import (
	"fmt"
	"math"
	"os"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
)

// Wire sizes matching the paper's ns-2 setup: 1000-byte data packets and
// 40-byte ACKs.
const (
	DefaultPktSize = 1000
	DefaultAckSize = 40
)

// FlowHooks are optional observation points, used by traces and tests.
// All fields may be nil.
type FlowHooks struct {
	// OnDataSent fires when the sender injects a data segment (before the
	// first hop can drop it).
	OnDataSent func(seg Seg, now sim.Time)
	// OnDataRecv fires when a data segment reaches the receiver.
	OnDataRecv func(seg Seg, now sim.Time)
	// OnAckSent fires when the receiver emits an ACK.
	OnAckSent func(ack Ack, now sim.Time)
	// OnAckRecv fires when an ACK survives the reverse path.
	OnAckRecv func(ack Ack, now sim.Time)
	// OnR1 fires when the flow crosses the RFC 1122 R1 notify threshold:
	// count consecutive retransmission timeouts without forward progress.
	OnR1 func(count int, now sim.Time)
	// OnAbort fires exactly once, when the flow enters the terminal
	// FlowAborted state (after the sender has been stopped).
	OnAbort func(reason AbortReason, now sim.Time)
}

// Chain composes two hook sets: each returned callback invokes h's hook
// first and next's second (either may be nil). Observers stack on a flow
// with f.Hooks = mine.Chain(f.Hooks) instead of hand-rolling the
// four-field chaining in every package.
func (h FlowHooks) Chain(next FlowHooks) FlowHooks {
	return FlowHooks{
		OnDataSent: chainHook(h.OnDataSent, next.OnDataSent),
		OnDataRecv: chainHook(h.OnDataRecv, next.OnDataRecv),
		OnAckSent:  chainHook(h.OnAckSent, next.OnAckSent),
		OnAckRecv:  chainHook(h.OnAckRecv, next.OnAckRecv),
		OnR1:       chainHook(h.OnR1, next.OnR1),
		OnAbort:    chainHook(h.OnAbort, next.OnAbort),
	}
}

// chainHook composes two callbacks of the same signature, eliding nils so
// chains of observers don't accumulate no-op wrappers.
func chainHook[T any](first, second func(T, sim.Time)) func(T, sim.Time) {
	if first == nil {
		return second
	}
	if second == nil {
		return first
	}
	return func(v T, now sim.Time) {
		first(v, now)
		second(v, now)
	}
}

// Flow is one end-to-end TCP connection: a sender at Src, a Receiver at
// Dst, and a router for each direction. Data and ACK packets both traverse
// the routed topology, so both can be reordered or dropped — the paper
// stresses that TCP-PR tolerates ACK reordering and loss too.
type Flow struct {
	// ID is the flow identifier used to demultiplex deliveries at nodes.
	ID int
	// PktSize and AckSize are wire sizes in bytes.
	PktSize, AckSize int

	// srcNet hosts the sending side (transmit, sender timers, ACK
	// arrival); dstNet hosts the receiving side (data arrival, the
	// receiver, ACK emission, the delayed-ACK timer). NewFlow sets both to
	// the same network; NewSplitFlow puts the two halves of a flow on
	// different shards of a parallel simulation, each with its own
	// scheduler. Every field of the flow is touched by exactly one side
	// (sender state and data-sent counters by src, receiver state and
	// ACK-sent counters by dst), which is what makes the split race-free.
	srcNet, dstNet *netem.Network
	src, dst       *netem.Node
	fwd, rev       routing.Router
	sender         Sender
	recv           *Receiver

	// Hooks are optional observation callbacks.
	Hooks FlowHooks

	// AbortPolicy bounds how long the connection keeps retrying (RFC 1122
	// R1/R2 thresholds, user timeout). The zero value — the default —
	// retransmits forever, exactly as before the lifecycle layer existed.
	// Set before Start.
	AbortPolicy AbortConfig

	state       FlowState
	abortReason AbortReason
	abortedAt   sim.Time
	lc          lifecycle

	// DelayedAcks enables RFC 1122/5681 receiver-side ACK delaying: an
	// ACK is withheld until a second in-order segment arrives or the
	// delack timer (200 ms) fires; out-of-order and duplicate arrivals
	// are ACKed immediately. The paper's ns-2 setup ACKs every packet
	// (the default here); this option exists to verify TCP-PR's
	// unmodified-receiver claim against the other standard receiver
	// behaviour. Set before Start.
	DelayedAcks bool

	delackPending bool
	delackAck     Ack
	delackTimer   *sim.Timer

	// Payload box pools. A transmitted Seg/Ack rides the network boxed
	// behind Packet.Payload; boxing a value interface allocates per packet,
	// so the flow boxes pointers into recycled storage instead: the sending
	// side pops a box, the receiving side returns it after copying the
	// value out. Boxes on dropped packets simply fall to the garbage
	// collector (the pool refills by allocation). A split flow's receiving
	// side parks the box on a spent list only it touches, and Reclaim moves
	// it to the free list at a barrier (see NewSplitFlow); spent is nil for
	// a flow on one network.
	segFree []*Seg
	ackFree []*Ack
	spent   *spentBoxes

	dataSent, dataRetx, acksSent uint64
}

// DelAckTimeout is the standard delayed-ACK timer.
const DelAckTimeout = 200 * time.Millisecond

// NewFlow wires a flow between two nodes. fwd routes data (src→dst), rev
// routes ACKs (dst→src). The sender is attached separately with Attach so
// that variant constructors can receive the flow's SenderEnv.
func NewFlow(net *netem.Network, id int, src, dst *netem.Node, fwd, rev routing.Router) *Flow {
	return NewSplitFlow(net, net, id, src, dst, fwd, rev)
}

// NewSplitFlow wires a flow whose two endpoints live on different networks
// (and therefore different schedulers): the sending half runs on srcNet's
// shard, the receiving half on dstNet's. The routers must route through
// the cross-shard portal stubs (see internal/psim). A box popped on one
// scheduler is consumed on the other, so consumed boxes wait on that side's
// spent list until the owner of both schedulers calls Reclaim. Passing the
// same network twice degenerates to NewFlow.
func NewSplitFlow(srcNet, dstNet *netem.Network, id int, src, dst *netem.Node, fwd, rev routing.Router) *Flow {
	if fwd == nil || rev == nil {
		panic("tcp: NewFlow requires both routers")
	}
	f := &Flow{
		ID:      id,
		PktSize: DefaultPktSize,
		AckSize: DefaultAckSize,
		srcNet:  srcNet,
		dstNet:  dstNet,
		src:     src,
		dst:     dst,
		fwd:     fwd,
		rev:     rev,
		recv:    &Receiver{},
	}
	if srcNet != dstNet {
		f.spent = new(spentBoxes)
	}
	f.delackTimer = sim.NewTimer(dstNet.Scheduler(), func() {
		if f.delackPending {
			f.delackPending = false
			f.emitAck(f.delackAck)
		}
	})
	f.lc.flow = f
	dst.Handle(id, f.onDataArrival)
	src.Handle(id, f.onAckArrival)
	return f
}

// Env returns the sender environment for this flow.
func (f *Flow) Env() SenderEnv {
	return SenderEnv{Sched: f.srcNet.Scheduler(), Transmit: f.transmit, lc: &f.lc}
}

// Attach installs the sender built by mk. It must be called exactly once
// before Start.
func (f *Flow) Attach(mk func(SenderEnv) Sender) {
	if f.sender != nil {
		panic(fmt.Sprintf("tcp: flow %d already has a sender", f.ID))
	}
	f.sender = mk(f.Env())
}

// Start schedules the sender to begin at virtual time at. When an
// AbortPolicy user timeout is configured, its timer is armed just before
// the sender starts (a connection that never gets a single ACK still
// aborts).
func (f *Flow) Start(at sim.Time) {
	if f.sender == nil {
		panic(fmt.Sprintf("tcp: flow %d started without a sender", f.ID))
	}
	if f.AbortPolicy.UserTimeout > 0 && f.lc.userTimer == nil {
		f.lc.userTimer = sim.NewTimer(f.srcNet.Scheduler(), func() {
			f.Abort(AbortUserTimeout)
		})
		f.srcNet.Scheduler().At(at, func() {
			if f.state == FlowActive {
				f.lc.userTimer.ResetAfter(f.AbortPolicy.UserTimeout)
			}
		})
	}
	f.srcNet.Scheduler().At(at, f.sender.Start)
}

// Sender returns the attached sender (nil before Attach).
func (f *Flow) Sender() Sender { return f.sender }

// Receiver returns the flow's receiver.
func (f *Flow) Receiver() *Receiver { return f.recv }

// UniqueBytes returns the goodput numerator: distinct data bytes that
// reached the receiver.
func (f *Flow) UniqueBytes() int64 { return f.recv.UniqueSegs * int64(f.PktSize) }

// DataSent returns the number of data segments injected (including
// retransmissions); DataRetx counts only retransmissions.
func (f *Flow) DataSent() uint64 { return f.dataSent }

// DataRetx returns the number of retransmitted segments injected.
func (f *Flow) DataRetx() uint64 { return f.dataRetx }

// AcksSent returns the number of ACKs the receiver emitted.
func (f *Flow) AcksSent() uint64 { return f.acksSent }

// transmit implements SenderEnv.Transmit.
func (f *Flow) transmit(seg Seg) bool {
	if f.state == FlowAborted {
		// An aborted connection places nothing on the wire. The hook still
		// fires — without the send counters — so the conformance checker
		// can flag the attempt (a sender retransmitting after abort is a
		// bug this seam exists to catch).
		if f.Hooks.OnDataSent != nil {
			f.Hooks.OnDataSent(seg, f.srcNet.Scheduler().Now())
		}
		return false
	}
	f.dataSent++
	if seg.Retx {
		f.dataRetx++
	}
	if f.Hooks.OnDataSent != nil {
		f.Hooks.OnDataSent(seg, f.srcNet.Scheduler().Now())
	}
	p := f.srcNet.NewPacket()
	p.Flow = f.ID
	p.Size = f.PktSize
	p.Path = f.fwd.Route()
	p.Payload = f.newSegBox(seg)
	return f.srcNet.Send(p)
}

// newSegBox boxes a data segment for the wire, reusing recycled storage.
func (f *Flow) newSegBox(seg Seg) *Seg {
	if n := len(f.segFree); n > 0 {
		b := f.segFree[n-1]
		f.segFree = f.segFree[:n-1]
		*b = seg
		return b
	}
	b := new(Seg)
	*b = seg
	return b
}

// onDataArrival handles a data segment reaching the destination node.
func (f *Flow) onDataArrival(p *netem.Packet) {
	box, ok := p.Payload.(*Seg)
	if !ok {
		return // an ACK looped to the wrong endpoint; impossible by construction
	}
	seg := *box
	if f.spent != nil {
		f.spent.seg = append(f.spent.seg, spend(box, &box.Seq))
	} else {
		f.segFree = append(f.segFree, box)
	}
	now := f.dstNet.Scheduler().Now()
	if f.Hooks.OnDataRecv != nil {
		f.Hooks.OnDataRecv(seg, now)
	}
	ack := f.recv.OnData(seg, now)

	if f.DelayedAcks {
		// RFC 5681 §4.2: delay only clean in-order advances; anything
		// out of order or duplicate must be ACKed at once (and flushes
		// any pending delayed ACK state with it, since the cumulative
		// field is carried anyway).
		inOrder := len(ack.Blocks) == 0 && ack.DSACK == nil
		if inOrder && !f.delackPending {
			f.delackPending = true
			f.delackAck = ack
			f.delackTimer.ResetAfter(DelAckTimeout)
			return
		}
		if f.delackPending {
			f.delackPending = false
			f.delackTimer.Stop()
		}
	}
	f.emitAck(ack)
}

// emitAck sends one acknowledgment over the reverse path.
func (f *Flow) emitAck(ack Ack) {
	now := f.dstNet.Scheduler().Now()
	f.acksSent++
	if f.Hooks.OnAckSent != nil {
		f.Hooks.OnAckSent(ack, now)
	}
	p := f.dstNet.NewPacket()
	p.Flow = f.ID
	p.Size = f.AckSize
	p.Path = f.rev.Route()
	p.Payload = f.newAckBox(ack)
	f.dstNet.Send(p)
}

// newAckBox boxes an acknowledgment for the wire. The box carries its own
// SACK block storage (capacity MaxSackBlocks, retained across recycling),
// so the snapshot of the receiver's scratch-backed Blocks slice costs no
// allocation either — this was the other dominant per-ACK allocation.
func (f *Flow) newAckBox(ack Ack) *Ack {
	var b *Ack
	if n := len(f.ackFree); n > 0 {
		b = f.ackFree[n-1]
		f.ackFree = f.ackFree[:n-1]
	} else {
		b = &Ack{Blocks: make([]SackBlock, 0, MaxSackBlocks)}
	}
	blocks := b.Blocks[:0]
	*b = ack
	b.Blocks = append(blocks, ack.Blocks...)
	return b
}

// onAckArrival handles an ACK reaching the source node.
func (f *Flow) onAckArrival(p *netem.Packet) {
	box, ok := p.Payload.(*Ack)
	if !ok {
		return
	}
	ack := *box
	if f.Hooks.OnAckRecv != nil {
		f.Hooks.OnAckRecv(ack, f.srcNet.Scheduler().Now())
	}
	// An aborted connection discards late ACKs (a real stack would answer
	// with RST); feeding them to a stopped sender could re-arm its timers.
	if f.state != FlowAborted {
		f.sender.OnAck(ack)
	}
	// ack (and its Blocks alias into the box) is dead past this point; the
	// sender and hooks read ACKs synchronously, copying what they keep.
	box.DSACK = nil
	if f.spent != nil {
		f.spent.ack = append(f.spent.ack, spend(box, &box.CumAck))
	} else {
		f.ackFree = append(f.ackFree, box)
	}
}

// spentBoxes are the boxes a split flow consumed since the last Reclaim:
// seg is the receiving side's list, ack the sending side's.
type spentBoxes struct {
	seg []*Seg
	ack []*Ack
}

// Reclaim hands a split flow's consumed boxes back to the side that pops
// them. Neither side's scheduler may run during the call: psim calls it at
// the barrier, with every shard parked.
func (f *Flow) Reclaim() {
	f.segFree = append(f.segFree, f.spent.seg...)
	f.ackFree = append(f.ackFree, f.spent.ack...)
	f.spent.seg, f.spent.ack = f.spent.seg[:0], f.spent.ack[:0]
}

// debugPool poisons a split flow's spent boxes when TCPPR_DEBUG_POOL is set:
// a packet arriving with a box already waiting to be reused panics instead
// of reading the box's next occupant.
var debugPool = os.Getenv("TCPPR_DEBUG_POOL") != ""

// spend is the consuming side's release of a box, with its sequence field
// as the poison mark.
func spend[B any](box *B, seq *int64) *B {
	if debugPool {
		if *seq == math.MinInt64 {
			panic(fmt.Sprintf("tcp: packet carries a %T box already released", box))
		}
		*seq = math.MinInt64
	}
	return box
}
