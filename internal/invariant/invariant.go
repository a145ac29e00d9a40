// Package invariant is an online conformance oracle for the simulator: a
// Checker attaches to a running scenario through the existing observation
// seams — tcp.FlowHooks, a netem.Observer subscription, and the scheduler
// clock — and verifies, while the simulation executes, that
//
//   - packets are conserved: everything a flow sends is eventually
//     delivered, dropped (queue, loss, blackout, corruption), or still in
//     flight, with link-level duplication as the only permitted surplus;
//   - every receiver ACK is consistent with the receiver's own state
//     (monotone cumulative point, well-formed SACK blocks that describe
//     actually-buffered out-of-order data, sane DSACK reports);
//   - each sender variant obeys its own discipline: the RFC family keeps
//     RTO within its clamp, honours the 1 s floor before timeout
//     retransmissions, follows Karn's rule, and stays inside cwnd (+
//     limited transmit); TCP-PR never retransmits before its β·ewrtt
//     threshold has elapsed and never cuts cwnd without a detected drop.
//
// Attaching also arms the sim/netem pool-ownership debug checks, so a
// double-released event or packet panics at the release site instead of
// corrupting an unrelated later run. When no Checker is attached nothing
// in the hot path changes — the links have no subscriber and the pool
// checks stay single predictable branches.
//
// Violations are recorded (capped) with the virtual time, rule name, and
// flow; the fuzzer in internal/invariant/fuzzer composes random scenarios
// and reports the seed needed to replay any violation it finds.
package invariant

import (
	"fmt"
	"strings"

	"tcppr/internal/metrics"
	"tcppr/internal/netem"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
)

// DefaultMaxRecord caps how many violations a Checker keeps in full; the
// total count keeps incrementing past the cap.
const DefaultMaxRecord = 32

// Violation is one observed rule breach.
type Violation struct {
	// At is the virtual time of the breach.
	At sim.Time
	// Rule names the invariant, e.g. "pr-early-retx" or "conserve-data".
	Rule string
	// Flow identifies the flow ("flow 3 (TCP-PR)"), or the link for
	// link-level rules, or "" for network-wide rules.
	Flow string
	// Msg is the human-readable detail.
	Msg string
}

func (v Violation) String() string {
	where := v.Flow
	if where != "" {
		where += ": "
	}
	return fmt.Sprintf("%12v %s%s: %s", v.At, where, v.Rule, v.Msg)
}

// Checker runs the invariant suite for one simulation (one scheduler).
// Create it with New, attach the network and each flow before (or right
// after) the run starts, and call Finish after the run to evaluate the
// end-of-run conservation rules.
type Checker struct {
	sched *sim.Scheduler
	reg   *metrics.Registry
	max   int

	total      int
	violations []Violation

	net   *netem.Network
	flows map[int]*flowState
	order []*flowState // attach order, for deterministic Finish

	// OnViolation, if non-nil, fires synchronously for every violation,
	// including ones past the recording cap. The flight recorder in
	// internal/span uses it to dump the causal trail at the moment of the
	// breach, while the implicated packets are still in the event ring.
	OnViolation func(Violation)
}

// New returns a Checker bound to the simulation scheduler.
func New(sched *sim.Scheduler) *Checker {
	return &Checker{sched: sched, max: DefaultMaxRecord, flows: make(map[int]*flowState)}
}

// SetMetrics mirrors every violation into the registry as the counter
// "invariant.violations" plus one "invariant.violations.<rule>" per rule.
// The total is registered immediately, so a clean run's manifest still
// records "invariant.violations = 0" as proof the oracle was attached.
func (c *Checker) SetMetrics(reg *metrics.Registry) {
	c.reg = reg
	if reg != nil {
		reg.Counter("invariant.violations")
	}
}

// SetMaxRecord changes the cap on fully-recorded violations.
func (c *Checker) SetMaxRecord(n int) {
	if n > 0 {
		c.max = n
	}
}

// violatef records one violation.
func (c *Checker) violatef(flow, rule, format string, args ...any) {
	c.total++
	v := Violation{
		At: c.sched.Now(), Rule: rule, Flow: flow, Msg: fmt.Sprintf(format, args...),
	}
	if len(c.violations) < c.max {
		c.violations = append(c.violations, v)
	}
	if c.reg != nil {
		c.reg.Counter("invariant.violations").Inc()
		c.reg.Counter("invariant.violations." + rule).Inc()
	}
	if c.OnViolation != nil {
		c.OnViolation(v)
	}
}

// Total returns the number of violations observed (including any past the
// recording cap).
func (c *Checker) Total() int { return c.total }

// Violations returns the recorded violations in detection order.
func (c *Checker) Violations() []Violation {
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Err returns nil when no invariant was violated, otherwise an error
// summarizing the first recorded violations.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d invariant violation(s)", c.total)
	for i, v := range c.violations {
		if i == 5 {
			fmt.Fprintf(&sb, "; …")
			break
		}
		fmt.Fprintf(&sb, "; %s", v)
	}
	return fmt.Errorf("%s", sb.String())
}

// AttachNetwork subscribes the link checks and the conservation
// accounting to every packet delivery and drop on the network, and arms
// the packet/event pool ownership checks. Call it after the topology is
// built and before (or alongside) AttachFlow.
func (c *Checker) AttachNetwork(n *netem.Network) {
	c.net = n
	n.SetDebugPool(true)
	c.sched.SetDebugPool(true)
	n.Observe(linkObserver{c})
}

// AttachFlow chains the conformance rules for one flow onto its hooks.
// protocol is the workload variant label (it selects the per-variant rule
// set; the label matters because some variants — TD-FR — are structurally
// indistinguishable from their base sender). Call after the sender is
// attached (i.e. after workload.NewFlow or Flow.Attach).
func (c *Checker) AttachFlow(f *tcp.Flow, protocol string) {
	fs := newFlowState(c, f, protocol)
	c.flows[f.ID] = fs
	c.order = append(c.order, fs)
	f.Hooks = tcp.FlowHooks{
		OnDataSent: fs.onDataSent,
		OnDataRecv: fs.onDataRecv,
		OnAckSent:  fs.onAckSent,
		OnAckRecv:  fs.onAckRecv,
		OnAbort:    fs.onAbort,
	}.Chain(f.Hooks)
}

// Finish evaluates the end-of-run rules: a final state probe per flow and
// the quiescence side of conservation (nothing may have been received or
// dropped more often than it was sent plus link-level duplication).
func (c *Checker) Finish() {
	for _, fs := range c.order {
		fs.probe()
		fs.checkConservation(true)
		fs.finishAbort()
	}
	if c.net == nil {
		return
	}
	for _, l := range c.net.Links() {
		c.checkLink(l)
		// Unlike a reorder model (whose custody may legitimately straddle
		// the horizon), a repair middlebox must be flushed at end of run:
		// every held packet is delivered, dropped, or flushed — never
		// silently stranded in a buffer.
		if l.Repair() != nil && l.RepairHeldNow() != 0 {
			c.violatef(l.String(), "repair-ledger",
				"%d packets still in middlebox custody at end of run (missing RepairBox.Flush?)",
				l.RepairHeldNow())
		}
	}
}

// checkReorderLedger audits a reorder model's custody accounting:
// reordering may delay packets but must conserve them, so releases can
// never outrun holds and the in-custody count must close the ledger
// exactly. (Packets still held at the horizon are legitimate — a batch
// deadline past the cutoff — which is why quiescence does not demand
// held == released.)
func (c *Checker) checkReorderLedger(l *netem.Link) {
	st := l.Stats()
	if st.ReorderReleased > st.ReorderHeld {
		c.violatef(l.String(), "reorder-ledger",
			"reorder model released %d packets but only held %d", st.ReorderReleased, st.ReorderHeld)
	}
	if held := l.ReorderHeldNow(); uint64(held) != st.ReorderHeld-st.ReorderReleased {
		c.violatef(l.String(), "reorder-ledger",
			"reorder custody count %d != held %d - released %d", held, st.ReorderHeld, st.ReorderReleased)
	}
}

// checkRepairLedger audits a repair middlebox's custody accounting, the
// in-run half of the repair-ledger rule: resequencing may delay packets
// but must conserve them through the box, so releases can never outrun
// holds and the live custody count must close the ledger exactly. The
// end-of-run half (no packet held past the horizon) lives in Finish.
func (c *Checker) checkRepairLedger(l *netem.Link) {
	st := l.Stats()
	if st.RepairReleased > st.RepairHeld {
		c.violatef(l.String(), "repair-ledger",
			"middlebox released %d packets but only held %d", st.RepairReleased, st.RepairHeld)
	}
	if held := l.RepairHeldNow(); uint64(held) != st.RepairHeld-st.RepairReleased {
		c.violatef(l.String(), "repair-ledger",
			"middlebox custody count %d != held %d - released %d", held, st.RepairHeld, st.RepairReleased)
	}
}

// dupSlack is the network-wide count of link-duplicated packet copies —
// the only legitimate way for receive+drop counts to exceed send counts.
func (c *Checker) dupSlack() uint64 {
	if c.net == nil {
		return 0
	}
	var d uint64
	for _, l := range c.net.Links() {
		d += l.Stats().Duplicated
	}
	return d
}

// linkObserver is the Checker's packet-layer subscription: a delivery
// runs the link check, a drop the link check plus the flow attribution.
type linkObserver struct{ *Checker }

func (linkObserver) PacketSent(*netem.Packet) {}

func (linkObserver) PacketEnqueued(*netem.Link, *netem.Packet, sim.Time, sim.Time, sim.Time) {}

func (o linkObserver) PacketDelivered(l *netem.Link, _ *netem.Packet) { o.checkLink(l) }

func (linkObserver) PacketDuplicated(*netem.Link, *netem.Packet, *netem.Packet, sim.Time, sim.Time) {}

func (linkObserver) PacketRepair(*netem.Link, *netem.Packet, netem.RepairAction, sim.Time) {}

// checkLink verifies a link's counter algebra at an event boundary: queue
// occupancy must equal enqueued−dequeued, and deliveries (plus corrupt
// discards) can never exceed what entered the link.
func (c *Checker) checkLink(l *netem.Link) {
	st := l.Stats()
	if got, want := l.QueueLen(), int(st.Enqueued)-int(st.Dequeued); got != want {
		c.violatef(l.String(), "link-queue",
			"queue length %d != enqueued %d - dequeued %d", got, st.Enqueued, st.Dequeued)
	}
	if st.Delivered+st.Corrupted > st.Enqueued+st.Duplicated {
		c.violatef(l.String(), "link-balance",
			"delivered %d + corrupted %d exceeds enqueued %d + duplicated %d",
			st.Delivered, st.Corrupted, st.Enqueued, st.Duplicated)
	}
	if st.ReorderHeld != 0 || st.ReorderReleased != 0 {
		c.checkReorderLedger(l)
	}
	if st.RepairHeld != 0 || st.RepairReleased != 0 {
		c.checkRepairLedger(l)
	}
}

// PacketDropped attributes a terminal packet death to its flow. A packet
// dies at most once (whichever link rejected or corrupted it);
// intermediate deliveries are not terminal, so only the flow's own receive
// hooks count the other end of the ledger.
func (o linkObserver) PacketDropped(l *netem.Link, p *netem.Packet, _ netem.DropCause) {
	o.checkLink(l)
	fs := o.flows[p.Flow]
	if fs == nil {
		return // unattached (e.g. cross traffic)
	}
	switch p.Payload.(type) {
	case *tcp.Seg:
		fs.dataDropped++
	case *tcp.Ack:
		fs.ackDropped++
	}
	fs.checkConservation(false)
}
