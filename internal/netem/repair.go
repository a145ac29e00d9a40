package netem

import (
	"fmt"
	"sort"
	"time"

	"tcppr/internal/sim"
)

// SequencedPayload is the seam a reorder-repair middlebox uses to read a
// transport payload's resequencing key without netem importing the
// transport. tcp.Seg implements it (returning Seq); payloads that don't —
// ACKs, opaque test payloads — pass through the box untouched.
type SequencedPayload interface {
	// RepairSeq returns the payload's in-stream sequence number. The box
	// assumes consecutive segments differ by exactly 1 (the simulator's
	// ns-2-style packet sequence space).
	RepairSeq() int64
}

// RepairOverflow selects what a RepairBox does with a packet it would
// have held when a buffer cap is already exhausted.
type RepairOverflow uint8

const (
	// RepairForward forwards the packet unrepaired (still out of order):
	// the middlebox degrades to a wire under pressure. This is the
	// default — a resequencer should never make things worse than no
	// resequencer.
	RepairForward RepairOverflow = iota
	// RepairDrop drops the packet (cause DropRepairOverflow), modeling a
	// box whose buffer exhaustion turns reordering into loss — the
	// classic hidden price of in-network repair.
	RepairDrop
)

// String returns the policy's stable label, used by CLI flags and docs.
func (o RepairOverflow) String() string {
	if o == RepairDrop {
		return "drop"
	}
	return "forward"
}

// Shipped RepairConfig defaults: a well-provisioned box that a single
// simulated bottleneck cannot realistically overflow. The hold timeout is
// sized above one WAN round trip (the dumbbell's base RTT is ~48 ms): a
// resequencer that gives up in less than an RTT floods timeouts for any
// sender whose inter-packet gap is RTT-scale — exactly the slow flows that
// need repair most — while a displaced packet virtually always lands
// within one RTT of its peers.
const (
	DefaultRepairMaxFlows    = 1024
	DefaultRepairFlowCap     = 128
	DefaultRepairGlobalCap   = 4096
	DefaultRepairHoldTimeout = 100 * time.Millisecond
	DefaultRepairIdleTimeout = 5 * time.Second
)

// RepairConfig sizes one RepairBox. The zero value selects the shipped
// defaults (forward-on-overflow, generous caps).
type RepairConfig struct {
	// MaxFlows caps the flow table; admitting a new flow beyond it
	// evicts the least-recently-active flow (its held packets forward
	// unrepaired).
	MaxFlows int
	// FlowCap caps held packets per flow; GlobalCap caps held packets
	// box-wide. Exceeding either triggers the Overflow policy.
	FlowCap   int
	GlobalCap int
	// HoldTimeout bounds how long a gap may stall a flow: when the
	// oldest held packet has waited this long, the flow's whole buffer
	// is released in sequence order and the stream resumes past the
	// missing packet (which, if it ever arrives, passes through as a
	// retransmission).
	HoldTimeout time.Duration
	// IdleTimeout evicts flows with empty buffers that have seen no
	// traffic for this long, bounding table residency. Zero selects the
	// default; negative disables idle eviction.
	IdleTimeout time.Duration
	// Overflow is the cap-pressure policy: forward unrepaired (default)
	// or drop.
	Overflow RepairOverflow
}

func (c RepairConfig) withDefaults() RepairConfig {
	if c.MaxFlows <= 0 {
		c.MaxFlows = DefaultRepairMaxFlows
	}
	if c.FlowCap <= 0 {
		c.FlowCap = DefaultRepairFlowCap
	}
	if c.GlobalCap <= 0 {
		c.GlobalCap = DefaultRepairGlobalCap
	}
	if c.HoldTimeout <= 0 {
		c.HoldTimeout = DefaultRepairHoldTimeout
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultRepairIdleTimeout
	}
	return c
}

// RepairStats is the box's custody ledger and behavior breakdown. The
// ledger identity Held == Released + HeldNow() is audited by the
// invariant checker's repair-ledger rule; everything else attributes
// where releases came from and what the repair cost.
type RepairStats struct {
	// Seen counts sequenced data packets offered to the box; Passthrough
	// counts non-sequenced payloads (ACKs) forwarded untouched.
	Seen        uint64
	Passthrough uint64
	// InOrder counts packets forwarded immediately because they carried
	// the flow's next expected sequence (including each flow's first).
	InOrder uint64
	// Held counts custody takes; Released counts custody returns, split
	// by cause: GapFilled (the missing packet arrived), TimedOut (the
	// hold timeout flushed a stalled gap), Evicted (flow-table pressure
	// flushed the flow), Flushed (end-of-run Flush).
	Held      uint64
	Released  uint64
	GapFilled uint64
	TimedOut  uint64
	Evicted   uint64
	Flushed   uint64
	// RetxPassthrough counts packets below the flow's expected sequence
	// (retransmissions of data already forwarded); DupPassthrough counts
	// duplicates of packets currently held. Both forward immediately.
	RetxPassthrough uint64
	DupPassthrough  uint64
	// OverflowForwarded / OverflowDropped count would-hold packets that
	// hit a full buffer, per the Overflow policy.
	OverflowForwarded uint64
	OverflowDropped   uint64
	// FlowsTracked counts flow-table admissions; FlowsEvicted counts
	// evictions (LRU pressure and idle timeouts).
	FlowsTracked uint64
	FlowsEvicted uint64
	// HoldTime is the summed custody time over all released packets —
	// the latency price of repair. PeakHeld / PeakFlows are high-water
	// marks of buffer occupancy and table residency.
	HoldTime  time.Duration
	PeakHeld  int
	PeakFlows int
}

// RepairAction labels one middlebox lifecycle event for the tracing
// seam: a custody take, or a release attributed to its cause.
type RepairAction uint8

const (
	// RepairHold is a custody take (a gap was detected behind this
	// packet).
	RepairHold RepairAction = iota + 1
	// RepairRelease is a release because the gap filled in.
	RepairRelease
	// RepairTimeout is a release because the hold timeout expired.
	RepairTimeout
	// RepairEvict is a release because the flow was evicted.
	RepairEvict
	// RepairFlush is a release by an explicit end-of-run Flush.
	RepairFlush
)

// String returns the action's stable label, used as a span note.
func (a RepairAction) String() string {
	switch a {
	case RepairHold:
		return "hold"
	case RepairRelease:
		return "release"
	case RepairTimeout:
		return "timeout"
	case RepairEvict:
		return "evict"
	case RepairFlush:
		return "flush"
	}
	return "unknown"
}

// repairEntry is one held packet in a flow's sequence-ordered buffer.
// Entries are pooled (the fastclick TCPReorder idiom): the box recycles
// them through a free list, nilling the packet pointer so a stale entry
// can never resurrect a pooled packet.
type repairEntry struct {
	p      *Packet
	seq    int64
	heldAt sim.Time
	next   *repairEntry
}

// repairFlow is one tracked flow: the next expected sequence, the held
// buffer (ascending seq, singly linked), and LRU bookkeeping. Flows are
// pooled like entries.
type repairFlow struct {
	id         int
	expected   int64
	head       *repairEntry
	held       int
	gapSince   sim.Time // when the buffer last became non-empty
	lastActive sim.Time
	prev, next *repairFlow // LRU list, most recent at front
}

// RepairBox is a stateful in-network resequencing middlebox: attached to
// a link (SetRepair), it intercepts delivery, buffers out-of-order data
// packets per flow until the sequence gap behind them fills, and releases
// repaired runs in order — the "fix reordering in the network"
// counter-proposal to TCP-PR's tolerate-at-the-sender design.
//
// Semantics, per sequenced data packet:
//   - first packet of an unknown flow: defines the stream position
//     (expected = seq+1) and forwards;
//   - seq == expected: forwards, then drains any contiguous buffered run;
//   - seq < expected: retransmission passthrough (forwards immediately —
//     the box must never starve loss recovery);
//   - duplicate of a held seq: passthrough;
//   - seq > expected: held until the gap fills, the hold timeout expires,
//     or the flow is evicted — unless a buffer cap is exhausted, in which
//     case the Overflow policy applies.
//
// Determinism: the box draws no randomness, iterates only its LRU list
// (never a map), and all releases happen at well-defined virtual times,
// so runs remain a pure function of the seed. All buffered packets can be
// handed back at end of run with Flush, which the repair-ledger invariant
// requires before Checker.Finish.
type RepairBox struct {
	cfg   RepairConfig
	link  *Link
	sched *sim.Scheduler
	stats RepairStats

	flows            map[int]*repairFlow
	lruHead, lruTail *repairFlow
	heldNow          int

	freeEntries *repairEntry
	freeFlows   *repairFlow

	timer      sim.Handle
	timerAt    sim.Time
	timerArmed bool
	timerFn    func(any)
}

// NewRepairBox builds a detached middlebox; attach it with Link.SetRepair.
// Zero-value config fields take the shipped defaults.
func NewRepairBox(cfg RepairConfig) *RepairBox {
	b := &RepairBox{
		cfg:   cfg.withDefaults(),
		flows: make(map[int]*repairFlow),
	}
	b.timerFn = repairTimerFire
	return b
}

// Stats returns a snapshot of the box's counters.
func (b *RepairBox) Stats() RepairStats { return b.stats }

// FlowCount returns the current flow-table residency.
func (b *RepairBox) FlowCount() int { return len(b.flows) }

// bind attaches the box to its link (SetRepair calls it). A box serves
// exactly one link: its buffers are that link's far-end element.
func (b *RepairBox) bind(l *Link) {
	if b.link != nil && b.link != l {
		panic(fmt.Sprintf("netem: repair box already attached to %s, cannot attach to %s", b.link, l))
	}
	b.link = l
	b.sched = l.sched
}

// offer intercepts one packet at delivery time. It returns true when the
// box consumed the packet (delivered it itself, took custody, or dropped
// it) and false when the link should deliver it normally.
func (b *RepairBox) offer(p *Packet) bool {
	now := b.sched.Now()
	b.evictIdle(now)
	sp, ok := p.Payload.(SequencedPayload)
	if !ok {
		b.stats.Passthrough++
		return false
	}
	b.stats.Seen++
	seq := sp.RepairSeq()
	f := b.flows[p.Flow]
	if f == nil {
		f = b.newFlow(p.Flow, now)
		f.expected = seq + 1
		b.stats.InOrder++
		return false
	}
	b.touch(f, now)
	if seq == f.expected {
		f.expected++
		b.stats.InOrder++
		b.link.finishDeliver(p)
		b.drainRun(f, now)
		return true
	}
	if seq < f.expected {
		b.stats.RetxPassthrough++
		return false
	}
	if f.buffered(seq) {
		b.stats.DupPassthrough++
		return false
	}
	if f.held >= b.cfg.FlowCap || b.heldNow >= b.cfg.GlobalCap {
		if b.cfg.Overflow == RepairDrop {
			b.stats.OverflowDropped++
			b.link.stats.RepairDropped++
			b.link.drop(p, DropRepairOverflow)
			b.link.recycle(p)
			return true
		}
		b.stats.OverflowForwarded++
		return false
	}
	b.hold(f, p, seq, now)
	return true
}

// hold takes custody of one out-of-order packet, inserting it into the
// flow's seq-sorted buffer and arming the gap timeout.
func (b *RepairBox) hold(f *repairFlow, p *Packet, seq int64, now sim.Time) {
	e := b.newEntry()
	e.p, e.seq, e.heldAt = p, seq, now
	// Insert in ascending sequence order; buffers are FlowCap-bounded,
	// so the scan is short and branch-predictable.
	if f.head == nil || seq < f.head.seq {
		e.next = f.head
		f.head = e
	} else {
		at := f.head
		for at.next != nil && at.next.seq < seq {
			at = at.next
		}
		e.next = at.next
		at.next = e
	}
	if f.held == 0 {
		f.gapSince = now
	}
	f.held++
	b.heldNow++
	if b.heldNow > b.stats.PeakHeld {
		b.stats.PeakHeld = b.heldNow
	}
	b.stats.Held++
	b.link.stats.RepairHeld++
	b.observe(p, RepairHold, 0)
	b.armTimer(f.gapSince + sim.Time(b.cfg.HoldTimeout))
}

// drainRun releases the contiguous run at the head of the flow's buffer
// (everything whose gap just filled), advancing expected past it.
func (b *RepairBox) drainRun(f *repairFlow, now sim.Time) {
	for f.head != nil && f.head.seq == f.expected {
		e := f.head
		f.head = e.next
		f.expected++
		b.release(f, e, RepairRelease, now)
	}
	if f.held > 0 {
		// A gap remains; its clock restarts at the oldest surviving hold
		// (the buffer is seq-sorted, so scan — it is FlowCap-bounded).
		min := f.head.heldAt
		for e := f.head.next; e != nil; e = e.next {
			if e.heldAt < min {
				min = e.heldAt
			}
		}
		f.gapSince = min
	}
}

// release hands one held packet back to the wire: ledger bookkeeping,
// trace event, then normal link delivery.
func (b *RepairBox) release(f *repairFlow, e *repairEntry, action RepairAction, now sim.Time) {
	p := e.p
	heldFor := now - e.heldAt
	b.freeEntry(e)
	f.held--
	b.heldNow--
	b.stats.Released++
	switch action {
	case RepairRelease:
		b.stats.GapFilled++
	case RepairTimeout:
		b.stats.TimedOut++
	case RepairEvict:
		b.stats.Evicted++
	case RepairFlush:
		b.stats.Flushed++
	}
	b.stats.HoldTime += time.Duration(heldFor)
	b.link.stats.RepairReleased++
	b.observe(p, action, heldFor)
	b.link.finishDeliver(p)
}

// flushFlow releases a flow's whole buffer in sequence order. When
// advance is true (timeouts) the flow resumes past the flushed run;
// eviction callers delete the flow afterwards, so expected is moot.
func (b *RepairBox) flushFlow(f *repairFlow, action RepairAction, now sim.Time, advance bool) {
	for f.head != nil {
		e := f.head
		f.head = e.next
		if advance && e.seq >= f.expected {
			f.expected = e.seq + 1
		}
		b.release(f, e, action, now)
	}
}

// Flush releases every held packet (in LRU order across flows, sequence
// order within each) and clears the flow table. Call it after the run's
// horizon, before invariant Finish: the repair-ledger rule requires that
// no packet stays in middlebox custody past end of run.
func (b *RepairBox) Flush() {
	if b.sched == nil { // never attached: nothing can be held
		return
	}
	now := b.sched.Now()
	for b.lruHead != nil {
		f := b.lruHead
		b.flushFlow(f, RepairFlush, now, false)
		b.removeFlow(f)
	}
	if b.timerArmed {
		b.timer.Cancel()
		b.timerArmed = false
	}
}

// buffered reports whether seq is already in the flow's hold buffer.
func (f *repairFlow) buffered(seq int64) bool {
	for e := f.head; e != nil && e.seq <= seq; e = e.next {
		if e.seq == seq {
			return true
		}
	}
	return false
}

// newFlow admits a flow to the table, evicting the least-recently-active
// one first when the table is full.
func (b *RepairBox) newFlow(id int, now sim.Time) *repairFlow {
	if len(b.flows) >= b.cfg.MaxFlows {
		t := b.lruTail
		b.flushFlow(t, RepairEvict, now, false)
		b.removeFlow(t)
		b.stats.FlowsEvicted++
	}
	f := b.allocFlow()
	f.id = id
	f.lastActive = now
	b.flows[id] = f
	b.pushFront(f)
	b.stats.FlowsTracked++
	if len(b.flows) > b.stats.PeakFlows {
		b.stats.PeakFlows = len(b.flows)
	}
	return f
}

// evictIdle trims empty, long-idle flows from the cold end of the LRU
// list; flows with held packets are bounded by the hold timeout instead.
func (b *RepairBox) evictIdle(now sim.Time) {
	if b.cfg.IdleTimeout < 0 {
		return
	}
	idle := sim.Time(b.cfg.IdleTimeout)
	for t := b.lruTail; t != nil && t.held == 0 && now-t.lastActive >= idle; t = b.lruTail {
		b.removeFlow(t)
		b.stats.FlowsEvicted++
	}
}

// touch marks a flow active and moves it to the hot end of the LRU list.
func (b *RepairBox) touch(f *repairFlow, now sim.Time) {
	f.lastActive = now
	if b.lruHead == f {
		return
	}
	b.unlink(f)
	b.pushFront(f)
}

func (b *RepairBox) pushFront(f *repairFlow) {
	f.prev = nil
	f.next = b.lruHead
	if b.lruHead != nil {
		b.lruHead.prev = f
	}
	b.lruHead = f
	if b.lruTail == nil {
		b.lruTail = f
	}
}

func (b *RepairBox) unlink(f *repairFlow) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		b.lruHead = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		b.lruTail = f.prev
	}
	f.prev, f.next = nil, nil
}

// removeFlow unlinks an (empty-buffered) flow from the table and
// recycles its struct.
func (b *RepairBox) removeFlow(f *repairFlow) {
	b.unlink(f)
	delete(b.flows, f.id)
	*f = repairFlow{}
	f.next = b.freeFlows
	b.freeFlows = f
}

func (b *RepairBox) allocFlow() *repairFlow {
	if f := b.freeFlows; f != nil {
		b.freeFlows = f.next
		f.next = nil
		return f
	}
	return &repairFlow{}
}

func (b *RepairBox) newEntry() *repairEntry {
	if e := b.freeEntries; e != nil {
		b.freeEntries = e.next
		e.next = nil
		return e
	}
	return &repairEntry{}
}

// freeEntry recycles an entry, nilling the packet pointer first: entries
// outlive the packets they held (which recycle through the network pool
// on delivery), and a dangling pointer here would corrupt an unrelated
// flow if ever misused.
func (b *RepairBox) freeEntry(e *repairEntry) {
	e.p = nil
	e.next = b.freeEntries
	b.freeEntries = e
}

// armTimer (re)arms the box-wide gap timer if the new deadline is sooner
// than the pending one. One timer serves all flows: fires scan the LRU
// list, flush expired gaps, and re-arm at the next earliest deadline, so
// spurious wakes are cheap and holds never strand.
func (b *RepairBox) armTimer(deadline sim.Time) {
	if now := b.sched.Now(); deadline < now {
		deadline = now
	}
	if b.timerArmed && b.timerAt <= deadline {
		return
	}
	if b.timerArmed {
		b.timer.Cancel()
	}
	b.timer = b.sched.AtFunc(deadline, b.timerFn, b)
	b.timerAt = deadline
	b.timerArmed = true
}

// repairTimerFire is the closure-free gap-timeout trampoline.
func repairTimerFire(arg any) {
	b := arg.(*RepairBox)
	b.timerArmed = false
	now := b.sched.Now()
	var next sim.Time
	for f := b.lruHead; f != nil; {
		nf := f.next // flushing may not move f, but stay safe
		if f.held > 0 {
			dl := f.gapSince + sim.Time(b.cfg.HoldTimeout)
			if dl <= now {
				b.flushFlow(f, RepairTimeout, now, true)
			} else if next == 0 || dl < next {
				next = dl
			}
		}
		f = nf
	}
	if next != 0 {
		b.armTimer(next)
	}
}

// observe reports one middlebox lifecycle event to the link's observers.
func (b *RepairBox) observe(p *Packet, action RepairAction, heldFor sim.Time) {
	for _, o := range b.link.obs {
		o.PacketRepair(b.link, p, action, heldFor)
	}
}

// RepairScenario is one canned, named middlebox configuration — the
// catalog entry the repairmatrix experiment and the -repair CLI flag
// select from. New returns a fresh box; nil means "no middlebox" (the
// tolerate-at-the-sender baseline).
type RepairScenario struct {
	Name     string
	Describe string
	New      func() *RepairBox
}

// repairScenarios is the shipped catalog: the baseline, a box sized so a
// single bottleneck cannot overflow it (the best case for in-network
// repair), and a cap-starved box that converts buffer pressure into
// drops (its worst case).
var repairScenarios = []RepairScenario{
	{
		Name:     "none",
		Describe: "baseline: no middlebox, reordering reaches the receiver",
		New:      func() *RepairBox { return nil },
	},
	{
		Name:     "repair",
		Describe: "well-provisioned resequencer: default caps, 100ms gap timeout, forwards on overflow",
		New:      func() *RepairBox { return NewRepairBox(RepairConfig{}) },
	},
	{
		Name:     "repair-tight",
		Describe: "cap-starved resequencer: 4/flow + 8 global buffers, 5ms gap timeout, drops on overflow",
		New: func() *RepairBox {
			return NewRepairBox(RepairConfig{
				MaxFlows:    16,
				FlowCap:     4,
				GlobalCap:   8,
				HoldTimeout: 5 * time.Millisecond,
				Overflow:    RepairDrop,
			})
		},
	},
}

// RepairScenarios returns the canned middlebox catalog.
func RepairScenarios() []RepairScenario {
	out := make([]RepairScenario, len(repairScenarios))
	copy(out, repairScenarios)
	return out
}

// RepairScenarioNames returns the catalog names in registration order.
func RepairScenarioNames() []string {
	names := make([]string, len(repairScenarios))
	for i, s := range repairScenarios {
		names[i] = s.Name
	}
	return names
}

// RepairScenarioByName looks up a canned middlebox scenario.
func RepairScenarioByName(name string) (RepairScenario, error) {
	for _, s := range repairScenarios {
		if s.Name == name {
			return s, nil
		}
	}
	known := append([]string(nil), RepairScenarioNames()...)
	sort.Strings(known)
	return RepairScenario{}, fmt.Errorf("netem: unknown repair scenario %q (have %v)", name, known)
}
