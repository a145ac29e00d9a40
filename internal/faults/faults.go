// Package faults implements scripted fault injection: a deterministic,
// virtual-clock-driven Timeline of link impairment actions — blackouts,
// bandwidth and delay step changes, loss-rate ramps, loss-model swaps,
// queue-capacity shrinks — plus the Gilbert–Elliott burst-loss model.
//
// The static impairment knobs in netem (SetLoss, Jitter, RED) describe
// a network that misbehaves the same way for the whole run; the paper's §1
// motivates TCP-PR with networks that misbehave *over time* — route flaps,
// MANET re-routing, QoS elements that come and go. A Timeline expresses
// those: each Fault is applied at an exact virtual time on the shared
// sim.Scheduler, so a faulted run is exactly as reproducible as an
// unfaulted one. Applied faults are recorded as Events (and, optionally,
// as internal/metrics counters) so experiment manifests and traces can
// show what hit the network and when.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"tcppr/internal/metrics"
	"tcppr/internal/netem"
	"tcppr/internal/sim"
)

// Kind classifies a fault action, for event logs and metrics counters.
type Kind string

// Fault kinds.
const (
	LinkDown  Kind = "link_down"
	LinkUp    Kind = "link_up"
	HostDown  Kind = "host_down"
	HostUp    Kind = "host_up"
	Bandwidth Kind = "bandwidth"
	Delay     Kind = "delay"
	Loss      Kind = "loss"
	QueueCap  Kind = "queue_cap"
	Custom    Kind = "custom"
)

// Event records one applied fault.
type Event struct {
	// At is the virtual time the fault was applied.
	At sim.Time
	// Kind classifies the action.
	Kind Kind
	// Link names the affected link, or the affected host for node-targeted
	// faults (HostDown/HostUp); "" for target-independent actions.
	Link string
	// Note is the human-readable detail, e.g. "bandwidth 15 -> 7.5 Mbps".
	Note string
}

func (e Event) String() string {
	return fmt.Sprintf("%.6f\t%s\t%s\t%s", time.Duration(e.At).Seconds(), e.Kind, e.Link, e.Note)
}

// Fault is one scheduled action on a Timeline.
type Fault struct {
	// At is the virtual time the action fires.
	At sim.Time
	// Kind classifies the action.
	Kind Kind
	// Link is the affected link (nil for link-independent actions).
	Link *netem.Link
	// Node is the affected host for node-targeted faults (HostDown/HostUp);
	// its name takes the Link column of the event log.
	Node *netem.Node
	// Note describes the action for event logs.
	Note string
	// Apply performs the action. It runs on the scheduler at At.
	Apply func()
}

// Timeline is an ordered script of faults bound to one simulation run.
// Build it before the clock starts, optionally point it at a metrics
// registry with Instrument, then Install it on the run's scheduler.
type Timeline struct {
	// OnEvent, if non-nil, observes every applied fault (after Apply).
	// Traces subscribe here. Set before Install.
	OnEvent func(Event)

	faults    []Fault
	applied   []Event
	reg       *metrics.Registry
	sched     *sim.Scheduler
	installed bool
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline { return &Timeline{} }

// Add appends one fault. At must be non-negative and Apply non-nil.
//
// After Install the timeline becomes a live control channel: a fault added
// then is scheduled immediately on the run's scheduler (so scripted
// reboots and retry workloads can extend the script mid-run), and a fault
// whose time has already passed panics — silently never firing was the old
// footgun this replaces.
func (t *Timeline) Add(f Fault) {
	if f.At < 0 {
		panic(fmt.Sprintf("faults: fault %q scheduled at negative time %v", f.Kind, f.At))
	}
	if f.Apply == nil {
		panic(fmt.Sprintf("faults: fault %q has no Apply", f.Kind))
	}
	if f.Kind == "" {
		f.Kind = Custom
	}
	if t.installed {
		if f.At < t.sched.Now() {
			panic(fmt.Sprintf("faults: fault %q added at %v, after its own time %v — an installed timeline can only schedule forward",
				f.Kind, t.sched.Now(), f.At))
		}
		t.faults = append(t.faults, f)
		t.sched.At(f.At, func() { t.fire(f) })
		return
	}
	t.faults = append(t.faults, f)
}

// Len returns the number of scheduled faults.
func (t *Timeline) Len() int { return len(t.faults) }

// Applied returns the faults applied so far, in application order.
func (t *Timeline) Applied() []Event { return t.applied }

// Instrument routes fault applications into a metrics registry: a
// "faults.applied" total plus one "faults.<kind>" counter per kind seen.
// Call before Install; the counters then appear in run manifests next to
// the flow and link instruments.
func (t *Timeline) Instrument(reg *metrics.Registry) {
	t.reg = reg
	if reg != nil {
		reg.Counter("faults.applied") // pre-register so even a fault-free run exports it
	}
}

// Install schedules every fault on the given scheduler. It panics when
// called twice, or when a fault's time is already in the past — a
// timeline is a pre-run script, not a live control channel.
func (t *Timeline) Install(sched *sim.Scheduler) {
	if t.installed {
		panic("faults: timeline installed twice")
	}
	t.installed = true
	t.sched = sched
	// Sort by (time, insertion order) so the application order is the
	// script order regardless of how helpers appended their actions.
	sort.SliceStable(t.faults, func(i, j int) bool { return t.faults[i].At < t.faults[j].At })
	for i := range t.faults {
		f := t.faults[i]
		if f.At < sched.Now() {
			panic(fmt.Sprintf("faults: fault %q at %v is before now %v", f.Kind, f.At, sched.Now()))
		}
		sched.At(f.At, func() { t.fire(f) })
	}
}

// fire applies one fault and records it.
func (t *Timeline) fire(f Fault) {
	f.Apply()
	target := linkName(f.Link)
	if f.Node != nil {
		target = f.Node.Name
	}
	ev := Event{At: f.At, Kind: f.Kind, Link: target, Note: f.Note}
	t.applied = append(t.applied, ev)
	if t.reg != nil {
		t.reg.Counter("faults.applied").Inc()
		t.reg.Counter("faults." + string(f.Kind)).Inc()
	}
	if t.OnEvent != nil {
		t.OnEvent(ev)
	}
}

func linkName(l *netem.Link) string {
	if l == nil {
		return ""
	}
	return l.String()
}

// Blackout takes a link down at from and restores it at until. Packets
// offered while down are rejected (netem counts them in BlackoutDropped);
// packets already in flight at the cut still deliver.
func (t *Timeline) Blackout(l *netem.Link, from, until sim.Time) {
	if until <= from {
		panic(fmt.Sprintf("faults: blackout on %s ends at %v, before start %v", l, until, from))
	}
	t.Add(Fault{At: from, Kind: LinkDown, Link: l,
		Note:  fmt.Sprintf("down for %v", until-from),
		Apply: func() { l.SetDown(true) }})
	t.Add(Fault{At: until, Kind: LinkUp, Link: l,
		Note:  "restored",
		Apply: func() { l.SetDown(false) }})
}

// HostDownAt detaches a host at the given time: every link touching the
// node kills traffic (rejections at enqueue, in-flight destruction at
// delivery) with drop cause netem.DropHostDown, so the node's flows stop
// responding entirely — the endpoint-churn counterpart of Blackout.
func (t *Timeline) HostDownAt(n *netem.Node, at sim.Time) {
	t.Add(Fault{At: at, Kind: HostDown, Node: n,
		Note:  "host down",
		Apply: func() { n.SetDown(true) }})
}

// HostUpAt reattaches a host at the given time (a reboot completing). The
// node's flow handlers survived the outage, so connections that have not
// aborted resume where the wire left them.
func (t *Timeline) HostUpAt(n *netem.Node, at sim.Time) {
	t.Add(Fault{At: at, Kind: HostUp, Node: n,
		Note:  "host up",
		Apply: func() { n.SetDown(false) }})
}

// HostReboot scripts one outage: the host goes down at from and comes back
// at until.
func (t *Timeline) HostReboot(n *netem.Node, from, until sim.Time) {
	if until <= from {
		panic(fmt.Sprintf("faults: host %s reboot ends at %v, before start %v", n.Name, until, from))
	}
	t.Add(Fault{At: from, Kind: HostDown, Node: n,
		Note:  fmt.Sprintf("down for %v (reboot)", until-from),
		Apply: func() { n.SetDown(true) }})
	t.HostUpAt(n, until)
}

// HostFlap scripts a flapping host: alternating down/up cycles starting at
// from, each cycle downFor out then upFor back, until the down edge would
// land at or past until. The host always comes back up (the last cycle's
// up edge may land past until) — script a trailing HostDownAt for a flap
// that ends dead.
func (t *Timeline) HostFlap(n *netem.Node, from, until sim.Time, downFor, upFor time.Duration) {
	if downFor <= 0 || upFor <= 0 {
		panic(fmt.Sprintf("faults: host %s flap needs positive down/up periods", n.Name))
	}
	cycle := 0
	for at := from; at < until; at += sim.Time(downFor + upFor) {
		cycle++
		t.Add(Fault{At: at, Kind: HostDown, Node: n,
			Note:  fmt.Sprintf("flap %d: down for %v", cycle, downFor),
			Apply: func() { n.SetDown(true) }})
		t.Add(Fault{At: at + sim.Time(downFor), Kind: HostUp, Node: n,
			Note:  fmt.Sprintf("flap %d: up for %v", cycle, upFor),
			Apply: func() { n.SetDown(false) }})
	}
}

// InstrumentHostDrops registers the "faults.host_down_drops" gauge: the
// network-wide total of packets destroyed by host faults, summed over
// every link's HostDownDropped counter at read time. Pair with
// Timeline.Instrument so churn runs export both the fault events and their
// packet toll.
func InstrumentHostDrops(reg *metrics.Registry, net *netem.Network) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("faults.host_down_drops", func() float64 {
		var total uint64
		for _, l := range net.Links() {
			total += l.Stats().HostDownDropped
		}
		return float64(total)
	})
}

// BandwidthStep changes a link's serialization rate at the given time.
func (t *Timeline) BandwidthStep(l *netem.Link, at sim.Time, bps int64) {
	t.Add(Fault{At: at, Kind: Bandwidth, Link: l,
		Note:  fmt.Sprintf("bandwidth -> %.3g Mbps", float64(bps)/1e6),
		Apply: func() { l.SetBandwidth(bps) }})
}

// DelayStep changes a link's propagation delay at the given time. A
// decrease reorders packets in flight across the step.
func (t *Timeline) DelayStep(l *netem.Link, at sim.Time, d time.Duration) {
	t.Add(Fault{At: at, Kind: Delay, Link: l,
		Note:  fmt.Sprintf("delay -> %v", d),
		Apply: func() { l.SetDelay(d) }})
}

// LossStep sets a link's i.i.d. loss probability at the given time
// (0 clears the loss process, 1 is total loss).
func (t *Timeline) LossStep(l *netem.Link, at sim.Time, prob float64, rng *rand.Rand) {
	t.Add(Fault{At: at, Kind: Loss, Link: l,
		Note:  fmt.Sprintf("iid loss -> %.3g", prob),
		Apply: func() { l.SetLoss(prob, rng) }})
}

// LossModelStep installs an arbitrary loss model at the given time
// (nil clears it). note names the model in event logs.
func (t *Timeline) LossModelStep(l *netem.Link, at sim.Time, m netem.LossModel, note string) {
	t.Add(Fault{At: at, Kind: Loss, Link: l, Note: note,
		Apply: func() { l.SetLossModel(m) }})
}

// LossRamp sweeps a link's i.i.d. loss probability linearly from p0 at
// from to p1 at until, in steps equal increments, then clears the loss
// process at until. All steps share the one RNG so the drop sequence is a
// single deterministic stream.
func (t *Timeline) LossRamp(l *netem.Link, from, until sim.Time, p0, p1 float64, steps int, rng *rand.Rand) {
	if steps < 1 {
		panic("faults: LossRamp needs at least one step")
	}
	if until <= from {
		panic(fmt.Sprintf("faults: loss ramp on %s ends at %v, before start %v", l, until, from))
	}
	for i := 0; i < steps; i++ {
		frac := float64(i) / float64(steps)
		t.LossStep(l, from+sim.Time(float64(until-from)*frac), p0+(p1-p0)*frac, rng)
	}
	t.LossStep(l, until, 0, nil)
}

// QueueCapStep changes a link's queue capacity at the given time.
// Shrinking never drops already-queued packets, only rejects new ones
// until the backlog drains.
func (t *Timeline) QueueCapStep(l *netem.Link, at sim.Time, cap int) {
	t.Add(Fault{At: at, Kind: QueueCap, Link: l,
		Note:  fmt.Sprintf("queue cap -> %d pkts", cap),
		Apply: func() { l.SetQueueCap(cap) }})
}

// WriteTSV dumps the applied-event log, one event per line
// (time, kind, link, note) — byte-identical across same-seed runs, which
// the determinism tests assert.
func (t *Timeline) EventsTSV() string {
	var s string
	for _, e := range t.applied {
		s += e.String() + "\n"
	}
	return s
}
