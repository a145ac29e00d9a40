// Package span is the simulator's causal tracing subsystem. Where
// internal/metrics answers "how much" and internal/trace answers "what did
// the endpoints see", span answers "what happened to *this packet*": every
// netem.Packet carries a trace ID from birth, link duplicates and
// retransmissions carry their progenitor's ID as a parent, and a Collector
// records the full lifecycle — injection, queueing, serialization,
// propagation, delivery, death-with-cause — interleaved with the sender's
// control-plane transitions (cwnd moves, estimator updates, loss-timer
// verdicts, recovery episodes) on one virtual-time line.
//
// The Collector is a fixed-size ring: construction allocates the buffer
// once and recording overwrites the oldest events, so tracing a week of
// simulated traffic costs bounded memory and the tail is always the
// interesting part. When nothing is attached the hot path pays exactly one
// nil-check per site (the contract internal/bench gates with
// span/detached-forwarding).
//
// Consumers: WriteChromeTrace renders the ring as Chrome trace-event JSON
// loadable in Perfetto (per-link and per-flow tracks), WriteTSV renders a
// tcptrace-style hop-level TSV, and FlightRecorder dumps the tail plus the
// implicated packet's causal trail when an invariant violation fires, a
// fault applies, or the run panics. See TRACING.md.
package span

import (
	"fmt"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// Kind classifies one span event.
type Kind uint8

// Event kinds. The packet-lifecycle kinds (Send … Dup) carry a Trace;
// sender/control kinds carry a Flow; Fault and Mark are run-global.
const (
	// Send: Network.Send accepted a packet (flow, seq, trace assigned).
	Send Kind = iota + 1
	// Enqueue: a link accepted the packet; TxStart/TxEnd/Arrive hold the
	// committed schedule (queue wait ends at TxStart, serialization at
	// TxEnd, propagation at Arrive).
	Enqueue
	// Deliver: the link handed the packet to the downstream node; Final
	// marks arrival at the route's last hop (the destination endpoint).
	Deliver
	// Drop: the packet died on Link; Cause says why.
	Drop
	// Dup: the link's duplication impairment cloned the packet; Trace is
	// the clone's fresh ID and Parent the original's.
	Dup
	// Cwnd: sender window change; A = cwnd, B = ssthresh (packets).
	Cwnd
	// RTT: estimator update; A = estimate, B = loss threshold (seconds).
	RTT
	// LossTimer: a loss verdict on Seq; Note is "pr-timer", "pr-revealed",
	// or "rto".
	LossTimer
	// Recovery: recovery episode boundary; Enter says which side, Note is
	// "fast-recovery" or "extreme-loss".
	Recovery
	// Fault: a faults.Timeline event applied; Link/Note describe it.
	Fault
	// Mark: a free-form annotation (invariant violations, CLI markers).
	Mark
	// Abort: the flow entered the terminal aborted state (or crossed the
	// R1 notify threshold); Note is the abort reason or "r1-notify".
	Abort
	// Repair: a reorder-repair middlebox acted on the packet; Note is the
	// action ("hold", "release", "timeout", "evict", "flush") and A the
	// custody duration in seconds (0 for hold).
	Repair
)

func (k Kind) String() string {
	switch k {
	case Send:
		return "send"
	case Enqueue:
		return "enq"
	case Deliver:
		return "deliver"
	case Drop:
		return "drop"
	case Dup:
		return "dup"
	case Cwnd:
		return "cwnd"
	case RTT:
		return "rtt"
	case LossTimer:
		return "loss-timer"
	case Recovery:
		return "recovery"
	case Fault:
		return "fault"
	case Mark:
		return "mark"
	case Abort:
		return "abort"
	case Repair:
		return "repair"
	}
	return "?"
}

// Event is one timestamped tracing record. Which fields are meaningful
// depends on Kind; unused fields are zero. The struct is flat (no pointers
// into the simulation) so a ring of Events retains nothing.
type Event struct {
	// At is the virtual time of the event.
	At sim.Time
	// Kind classifies the event.
	Kind Kind
	// Cause is the drop cause (Kind == Drop).
	Cause netem.DropCause
	// Retx marks a retransmitted segment (packet-lifecycle kinds).
	Retx bool
	// Final marks a Deliver at the route's last hop.
	Final bool
	// Enter is the direction of a Recovery event.
	Enter bool
	// Flow is the owning flow ID (0 if none).
	Flow int32
	// Size is the packet wire size in bytes.
	Size int32
	// Seq is the segment sequence (or cumulative ACK point for ACKs).
	Seq int64
	// Trace and Parent are the packet's causal identity.
	Trace, Parent uint64
	// TxStart, TxEnd, Arrive are the schedule committed at Enqueue (and
	// TxEnd/Arrive for Dup: the clone shares the original's arrival).
	TxStart, TxEnd, Arrive sim.Time
	// A and B carry sender-state values: Cwnd → cwnd/ssthresh in packets,
	// RTT → estimate/threshold in seconds.
	A, B float64
	// Link names the link involved ("" for flow/global events).
	Link string
	// Note is a short label: "data"/"ack" on Send, the timer or recovery
	// kind, the fault description, or the mark text.
	Note string
}

// flowSeq keys the retransmit-linkage table.
type flowSeq struct {
	flow int32
	seq  int64
}

// retxWindow bounds the retransmit-linkage table: sequences this far below
// the newest send are forgotten (no real sender retransmits that far back).
const retxWindow = 1 << 16

// DefaultCap is the ring capacity New uses when given cap <= 0 — enough
// for several seconds of multi-flow traffic at simulated broadband rates.
const DefaultCap = 1 << 19

// Collector records span events into a bounded ring. It implements
// netem.Observer and installs tcp.SenderProbe shims per flow. A Collector
// serves one single-threaded simulation; create one per scheduler.
type Collector struct {
	sched *sim.Scheduler
	ring  []Event
	n     uint64 // total events emitted (ring index = n % len)

	flows  map[int32]string   // flow ID -> protocol label
	order  []int32            // flow attach order (deterministic export)
	lastTx map[flowSeq]uint64 // last transmission's trace per sequence
}

// New creates a Collector bound to the simulation scheduler with a ring of
// the given capacity (DefaultCap if cap <= 0). The ring is allocated up
// front; recording never allocates.
func New(sched *sim.Scheduler, capacity int) *Collector {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Collector{
		sched:  sched,
		ring:   make([]Event, capacity),
		flows:  make(map[int32]string),
		lastTx: make(map[flowSeq]uint64),
	}
}

// AttachNetwork subscribes the collector to the network's packet
// lifecycle. Call after the topology is built.
func (c *Collector) AttachNetwork(n *netem.Network) { n.Observe(c) }

// AttachFlow registers a flow under its protocol label and, when the
// sender supports it, installs a probe for its control-plane transitions.
// Call after the sender is attached (workload.NewFlow or Flow.Attach).
func (c *Collector) AttachFlow(f *tcp.Flow, protocol string) {
	id := int32(f.ID)
	if _, seen := c.flows[id]; !seen {
		c.order = append(c.order, id)
	}
	c.flows[id] = protocol
	if ps, ok := f.Sender().(tcp.ProbeSetter); ok {
		ps.SetProbe(&flowProbe{c: c, flow: id})
	}
	// Abort lifecycle events ride the flow hooks: one event when the R1
	// notify threshold is crossed, one when the connection dies for good.
	f.Hooks = f.Hooks.Chain(tcp.FlowHooks{
		OnR1: func(count int, now sim.Time) {
			c.push(Event{At: now, Kind: Abort, Flow: id,
				Seq: int64(count), Note: "r1-notify"})
		},
		OnAbort: func(reason tcp.AbortReason, now sim.Time) {
			c.push(Event{At: now, Kind: Abort, Flow: id, Note: reason.String()})
		},
	})
}

// push appends one event to the ring.
func (c *Collector) push(e Event) {
	c.ring[c.n%uint64(len(c.ring))] = e
	c.n++
}

// Emitted returns the total number of events recorded, including any that
// have been overwritten.
func (c *Collector) Emitted() uint64 { return c.n }

// Overwritten returns how many events fell off the ring.
func (c *Collector) Overwritten() uint64 {
	if c.n <= uint64(len(c.ring)) {
		return 0
	}
	return c.n - uint64(len(c.ring))
}

// Events returns the retained events in chronological order (a copy).
func (c *Collector) Events() []Event {
	k := c.n
	if k > uint64(len(c.ring)) {
		k = uint64(len(c.ring))
	}
	out := make([]Event, k)
	start := c.n - k
	for i := uint64(0); i < k; i++ {
		out[i] = c.ring[(start+i)%uint64(len(c.ring))]
	}
	return out
}

// Tail returns up to the last n retained events in chronological order.
func (c *Collector) Tail(n int) []Event {
	ev := c.Events()
	if n > 0 && len(ev) > n {
		ev = ev[len(ev)-n:]
	}
	return ev
}

// Flows returns the attached flow IDs in attach order with their labels.
func (c *Collector) Flows() (ids []int32, labels []string) {
	for _, id := range c.order {
		ids = append(ids, id)
		labels = append(labels, c.flows[id])
	}
	return ids, labels
}

// FlowLabel formats a flow's display label, matching the invariant
// checker's convention ("flow 3 (TCP-PR)").
func (c *Collector) FlowLabel(id int32) string {
	proto, ok := c.flows[id]
	if !ok {
		return ""
	}
	return fmt.Sprintf("flow %d (%s)", id, proto)
}

// Mark records a free-form annotation at the current virtual time.
func (c *Collector) Mark(note string) {
	c.push(Event{At: c.sched.Now(), Kind: Mark, Note: note})
}

// FaultApplied records an applied fault; FlightRecorder.ArmTimeline feeds
// it from faults.Timeline.OnEvent.
func (c *Collector) FaultApplied(at sim.Time, link, note string) {
	c.push(Event{At: at, Kind: Fault, Link: link, Note: note})
}

// --- netem.Observer ---

var _ netem.Observer = (*Collector)(nil)

// PacketSent implements netem.Observer. For data segments it also
// maintains the retransmit chain: a retransmission's packet (and event)
// get the previous transmission of the same sequence as Parent.
func (c *Collector) PacketSent(p *netem.Packet) {
	e := Event{
		At: c.sched.Now(), Kind: Send, Flow: int32(p.Flow),
		Size: int32(p.Size), Trace: p.Trace,
	}
	switch pl := p.Payload.(type) {
	case *tcp.Seg:
		e.Seq, e.Retx, e.Note = pl.Seq, pl.Retx, "data"
		key := flowSeq{flow: e.Flow, seq: pl.Seq}
		if pl.Retx {
			if prev, ok := c.lastTx[key]; ok {
				p.Parent = prev
				e.Parent = prev
			}
		} else {
			delete(c.lastTx, flowSeq{flow: e.Flow, seq: pl.Seq - retxWindow})
		}
		c.lastTx[key] = p.Trace
	case *tcp.Ack:
		e.Seq, e.Note = pl.CumAck, "ack"
	}
	c.push(e)
}

// PacketEnqueued implements netem.Observer.
func (c *Collector) PacketEnqueued(l *netem.Link, p *netem.Packet, txStart, txEnd, arrive sim.Time) {
	c.push(Event{
		At: c.sched.Now(), Kind: Enqueue, Flow: int32(p.Flow), Size: int32(p.Size),
		Seq: seqOf(p), Retx: retxOf(p), Trace: p.Trace, Parent: p.Parent,
		TxStart: txStart, TxEnd: txEnd, Arrive: arrive, Link: l.String(),
	})
}

// PacketDelivered implements netem.Observer.
func (c *Collector) PacketDelivered(l *netem.Link, p *netem.Packet) {
	c.push(Event{
		At: c.sched.Now(), Kind: Deliver, Flow: int32(p.Flow), Size: int32(p.Size),
		Seq: seqOf(p), Retx: retxOf(p), Trace: p.Trace, Parent: p.Parent,
		Final: p.NextLink() == l && l.To == p.Dest(), Link: l.String(),
	})
}

// PacketDropped implements netem.Observer.
func (c *Collector) PacketDropped(l *netem.Link, p *netem.Packet, cause netem.DropCause) {
	c.push(Event{
		At: c.sched.Now(), Kind: Drop, Cause: cause, Flow: int32(p.Flow),
		Size: int32(p.Size), Seq: seqOf(p), Retx: retxOf(p),
		Trace: p.Trace, Parent: p.Parent, Link: l.String(),
	})
}

// PacketDuplicated implements netem.Observer.
func (c *Collector) PacketDuplicated(l *netem.Link, orig, dup *netem.Packet, txEnd, arrive sim.Time) {
	c.push(Event{
		At: c.sched.Now(), Kind: Dup, Flow: int32(dup.Flow), Size: int32(dup.Size),
		Seq: seqOf(dup), Retx: retxOf(dup), Trace: dup.Trace, Parent: dup.Parent,
		TxEnd: txEnd, Arrive: arrive, Link: l.String(),
	})
}

// PacketRepair implements netem.Observer: one event per middlebox
// custody transition, with the action label in Note and the custody
// duration (seconds, 0 for holds) in A.
func (c *Collector) PacketRepair(l *netem.Link, p *netem.Packet, action netem.RepairAction, heldFor sim.Time) {
	c.push(Event{
		At: c.sched.Now(), Kind: Repair, Flow: int32(p.Flow), Size: int32(p.Size),
		Seq: seqOf(p), Retx: retxOf(p), Trace: p.Trace, Parent: p.Parent,
		A: time.Duration(heldFor).Seconds(), Link: l.String(), Note: action.String(),
	})
}

// seqOf extracts the display sequence from a packet payload without
// allocating: segment sequence for data, cumulative point for ACKs.
func seqOf(p *netem.Packet) int64 {
	switch pl := p.Payload.(type) {
	case *tcp.Seg:
		return pl.Seq
	case *tcp.Ack:
		return pl.CumAck
	}
	return 0
}

// retxOf reports whether the packet carries a retransmitted segment.
func retxOf(p *netem.Packet) bool {
	if seg, ok := p.Payload.(*tcp.Seg); ok {
		return seg.Retx
	}
	return false
}

// TrailOf returns the retained events that belong to the causal closure of
// the given trace: the trace itself, every ancestor reachable through
// Parent links (earlier transmissions, duplication originals), and every
// retained descendant that points into that set. Events come back in
// chronological order — the hop-by-hop journey of a packet and its kin.
func (c *Collector) TrailOf(trace uint64) []Event {
	if trace == 0 {
		return nil
	}
	ev := c.Events()
	// Parent mapping from the retained events.
	parent := make(map[uint64]uint64)
	for _, e := range ev {
		if e.Trace != 0 && e.Parent != 0 {
			parent[e.Trace] = e.Parent
		}
	}
	set := map[uint64]bool{trace: true}
	for t := trace; ; {
		p, ok := parent[t]
		if !ok || set[p] {
			break
		}
		set[p] = true
		t = p
	}
	// Descendants: repeated passes until closure (chains are short).
	for changed := true; changed; {
		changed = false
		for t, p := range parent {
			if set[p] && !set[t] {
				set[t] = true
				changed = true
			}
		}
	}
	var out []Event
	for _, e := range ev {
		if e.Trace != 0 && set[e.Trace] {
			out = append(out, e)
		}
	}
	return out
}

// LastTraceForFlow returns the trace ID of the most recent retained
// packet-lifecycle event belonging to the flow (0 if none) — the
// "implicated packet" heuristic the flight recorder uses when an invariant
// violation names a flow.
func (c *Collector) LastTraceForFlow(flow int32) uint64 {
	ev := c.Events()
	for i := len(ev) - 1; i >= 0; i-- {
		if ev[i].Trace != 0 && ev[i].Flow == flow {
			return ev[i].Trace
		}
	}
	return 0
}

// flowProbe adapts tcp.SenderProbe callbacks into ring events for one flow.
type flowProbe struct {
	c    *Collector
	flow int32
}

var _ tcp.SenderProbe = (*flowProbe)(nil)

func (p *flowProbe) ProbeCwnd(now sim.Time, cwnd, ssthresh float64) {
	p.c.push(Event{At: now, Kind: Cwnd, Flow: p.flow, A: cwnd, B: ssthresh})
}

func (p *flowProbe) ProbeRTT(now sim.Time, estimate, threshold time.Duration) {
	p.c.push(Event{
		At: now, Kind: RTT, Flow: p.flow,
		A: estimate.Seconds(), B: threshold.Seconds(),
	})
}

func (p *flowProbe) ProbeLossTimer(now sim.Time, seq int64, kind string) {
	p.c.push(Event{At: now, Kind: LossTimer, Flow: p.flow, Seq: seq, Note: kind})
}

func (p *flowProbe) ProbeRecovery(now sim.Time, entered bool, kind string) {
	p.c.push(Event{At: now, Kind: Recovery, Flow: p.flow, Enter: entered, Note: kind})
}
