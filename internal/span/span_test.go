package span

import (
	"slices"
	"testing"
	"time"

	"tcppr/internal/invariant"
	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// runBlackoutScenario runs one flow over a dumbbell whose bottleneck goes
// dark from 1s to 1.6s — long enough to kill in-flight data and force the
// sender's loss timer (RTO for the RFC family, β·ewrtt for TCP-PR) to fire
// and retransmit. With collect=true a Collector is attached; either way the
// flow and final bottleneck stats come back so attached/detached runs can
// be compared.
func runBlackoutScenario(t *testing.T, protocol string, collect bool) (*Collector, *tcp.Flow, netem.LinkStats) {
	t.Helper()
	c, _, f, st := runBlackoutChecked(t, protocol, collect, false)
	return c, f, st
}

// runBlackoutChecked is runBlackoutScenario with, when check is set, an
// invariant Checker subscribed after the collector and finished at the
// horizon.
func runBlackoutChecked(t *testing.T, protocol string, collect, check bool) (*Collector, *invariant.Checker, *tcp.Flow, netem.LinkStats) {
	t.Helper()
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1, BottleneckBW: topo.Mbps(6)})
	var c *Collector
	if collect {
		c = New(sched, 1<<16)
		c.AttachNetwork(d.Net)
	}
	var ck *invariant.Checker
	if check {
		ck = invariant.New(sched)
		ck.AttachNetwork(d.Net)
	}
	f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
		routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	workload.NewFlow(f, protocol, workload.PRParams{Alpha: 0.995, Beta: 3}, 0)
	if c != nil {
		c.AttachFlow(f, protocol)
	}
	if ck != nil {
		ck.AttachFlow(f, protocol)
	}
	sched.At(sim.Time(time.Second), func() { d.Bottleneck.SetDown(true) })
	sched.At(sim.Time(1600*time.Millisecond), func() { d.Bottleneck.SetDown(false) })
	sched.RunUntil(sim.Time(5 * time.Second))
	if ck != nil {
		ck.Finish()
	}
	return c, ck, f, d.Bottleneck.Stats()
}

// TestRetxChainLinkage is the retransmit-chain acceptance test: after a
// forced loss-timer retransmission, the retransmitted packet's span must
// carry the original transmission's trace ID as its parent — for TCP-PR
// (whose timer is the β·ewrtt threshold) and NewReno (whose timer is the
// RTO) alike.
func TestRetxChainLinkage(t *testing.T) {
	for _, proto := range []string{workload.TCPPR, workload.NewReno} {
		t.Run(proto, func(t *testing.T) {
			c, f, _ := runBlackoutScenario(t, proto, true)
			if f.DataRetx() == 0 {
				t.Fatal("blackout scenario produced no retransmissions")
			}

			// Index every data Send by trace, remembering its sequence.
			seqOfTrace := map[uint64]int64{}
			var linked, retxSends int
			for _, e := range c.Events() {
				if e.Kind != Send || e.Note != "data" {
					continue
				}
				seqOfTrace[e.Trace] = e.Seq
				if !e.Retx {
					continue
				}
				retxSends++
				if e.Parent == 0 {
					t.Errorf("retx send of seq %d (trace %d) has no parent", e.Seq, e.Trace)
					continue
				}
				pseq, ok := seqOfTrace[e.Parent]
				if !ok {
					t.Errorf("retx send of seq %d: parent trace %d never seen as a send", e.Seq, e.Parent)
					continue
				}
				if pseq != e.Seq {
					t.Errorf("retx send of seq %d linked to parent carrying seq %d", e.Seq, pseq)
					continue
				}
				linked++
			}
			if retxSends == 0 {
				t.Fatal("no retransmitted Send events recorded")
			}
			if linked != retxSends {
				t.Errorf("only %d of %d retx sends correctly linked", linked, retxSends)
			}

			// Loss-timer verdicts must also have been recorded, with the
			// variant's own kind.
			wantKind := "rto"
			if proto == workload.TCPPR {
				wantKind = "pr-timer"
			}
			var timers int
			for _, e := range c.Events() {
				if e.Kind == LossTimer && e.Note == wantKind {
					timers++
				}
			}
			if timers == 0 {
				t.Errorf("no %q loss-timer events recorded", wantKind)
			}
		})
	}
}

// TestTrailOfFollowsRetxChain: the causal trail of a retransmission must
// include its progenitor's events — the hop-by-hop journey of both copies.
func TestTrailOfFollowsRetxChain(t *testing.T) {
	c, _, _ := runBlackoutScenario(t, workload.TCPPR, true)
	var retx Event
	for _, e := range c.Events() {
		if e.Kind == Send && e.Retx && e.Parent != 0 {
			retx = e
			break
		}
	}
	if retx.Trace == 0 {
		t.Fatal("no linked retransmission found")
	}
	trail := c.TrailOf(retx.Trace)
	var sawSelf, sawParent bool
	for _, e := range trail {
		if e.Trace == retx.Trace {
			sawSelf = true
		}
		if e.Trace == retx.Parent {
			sawParent = true
		}
		if e.Trace != 0 && e.Trace != retx.Trace && e.Trace != retx.Parent {
			// Anything else in the trail must still be causally connected
			// (a longer retx chain); it must share the sequence.
			if e.Seq != retx.Seq {
				t.Errorf("trail contains unrelated trace %d (seq %d != %d)", e.Trace, e.Seq, retx.Seq)
			}
		}
	}
	if !sawSelf || !sawParent {
		t.Fatalf("trail misses self (%v) or parent (%v); %d events", sawSelf, sawParent, len(trail))
	}
	// The trail must tell the parent's fate: it died in the blackout.
	var parentDropped bool
	for _, e := range trail {
		if e.Kind == Drop && e.Trace == retx.Parent && e.Cause == netem.DropBlackout {
			parentDropped = true
		}
	}
	if !parentDropped {
		// The parent may itself be a retx whose predecessor died; accept a
		// blackout drop anywhere in the chain.
		for _, e := range trail {
			if e.Kind == Drop && e.Cause == netem.DropBlackout {
				parentDropped = true
			}
		}
	}
	if !parentDropped {
		t.Error("trail of a blackout-forced retx contains no blackout drop")
	}
}

// TestTracingDoesNotPerturbDynamics: attaching a collector, alone or with
// an invariant checker subscribed beside it, must not change what the
// simulation computes — same delivered bytes, same retransmission count,
// same link counters as the detached run. With the checker the collector
// records exactly the collector-only run's events, and the checker finds
// nothing.
func TestTracingDoesNotPerturbDynamics(t *testing.T) {
	for _, proto := range []string{workload.TCPPR, workload.NewReno} {
		t.Run(proto, func(t *testing.T) {
			_, fOff, stOff := runBlackoutScenario(t, proto, false)
			var collectorOnly []Event
			for _, check := range []bool{false, true} {
				c, ck, fOn, stOn := runBlackoutChecked(t, proto, true, check)
				if c.Emitted() == 0 {
					t.Fatal("attached run recorded nothing")
				}
				if fOff.UniqueBytes() != fOn.UniqueBytes() {
					t.Errorf("check=%v: unique bytes diverge: detached %d, attached %d", check, fOff.UniqueBytes(), fOn.UniqueBytes())
				}
				if fOff.DataSent() != fOn.DataSent() || fOff.DataRetx() != fOn.DataRetx() {
					t.Errorf("check=%v: send counts diverge: detached %d/%d, attached %d/%d", check,
						fOff.DataSent(), fOff.DataRetx(), fOn.DataSent(), fOn.DataRetx())
				}
				if stOff != stOn {
					t.Errorf("check=%v: bottleneck stats diverge:\ndetached %+v\nattached %+v", check, stOff, stOn)
				}
				if !check {
					collectorOnly = c.Events()
					continue
				}
				if !slices.Equal(c.Events(), collectorOnly) {
					t.Errorf("with the checker subscribed the collector recorded %d events, want the collector-only run's %d",
						len(c.Events()), len(collectorOnly))
				}
				if ck.Total() != 0 {
					t.Errorf("checker found %d violations: %v", ck.Total(), ck.Err())
				}
			}
		})
	}
}

// TestCollectorRing: the ring is bounded, keeps the newest events, and
// reports emitted/overwritten/tail consistently.
func TestCollectorRing(t *testing.T) {
	sched := sim.NewScheduler()
	c := New(sched, 4)
	if c.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", c.Cap())
	}
	notes := []string{"a", "b", "c", "d", "e", "f"}
	for _, n := range notes {
		c.Mark(n)
	}
	if c.Emitted() != 6 || c.Overwritten() != 2 {
		t.Errorf("emitted %d overwritten %d, want 6 and 2", c.Emitted(), c.Overwritten())
	}
	ev := c.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, want := range []string{"c", "d", "e", "f"} {
		if ev[i].Note != want {
			t.Errorf("event %d note %q, want %q", i, ev[i].Note, want)
		}
	}
	tail := c.Tail(2)
	if len(tail) != 2 || tail[0].Note != "e" || tail[1].Note != "f" {
		t.Errorf("Tail(2) = %v", tail)
	}
	if got := c.Tail(0); len(got) != 4 {
		t.Errorf("Tail(0) returned %d events, want all 4", len(got))
	}
}

// TestDefaultCapAndFlowLabels: New(…, 0) uses DefaultCap; flow labels match
// the invariant checker's convention so violation attribution can join on
// them.
func TestDefaultCapAndFlowLabels(t *testing.T) {
	sched := sim.NewScheduler()
	c := New(sched, 0)
	if c.Cap() != DefaultCap {
		t.Errorf("Cap = %d, want DefaultCap %d", c.Cap(), DefaultCap)
	}
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	f := tcp.NewFlow(d.Net, 3, d.Src(0), d.Dst(0),
		routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	workload.NewFlow(f, workload.TCPPR, workload.PRParams{Alpha: 0.995, Beta: 3}, 0)
	c.AttachFlow(f, workload.TCPPR)
	if got, want := c.FlowLabel(3), "flow 3 (TCP-PR)"; got != want {
		t.Errorf("FlowLabel = %q, want %q", got, want)
	}
	if c.FlowLabel(99) != "" {
		t.Errorf("unknown flow label = %q, want empty", c.FlowLabel(99))
	}
	ids, labels := c.Flows()
	if len(ids) != 1 || ids[0] != 3 || labels[0] != workload.TCPPR {
		t.Errorf("Flows() = %v, %v", ids, labels)
	}
}

// TestProbeEventsRecorded: control-plane transitions (cwnd moves, RTT
// updates, recovery episodes) land in the ring alongside packet events.
func TestProbeEventsRecorded(t *testing.T) {
	c, _, _ := runBlackoutScenario(t, workload.NewReno, true)
	kinds := map[Kind]int{}
	for _, e := range c.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []Kind{Send, Enqueue, Deliver, Drop, Cwnd, RTT, LossTimer} {
		if kinds[k] == 0 {
			t.Errorf("no %v events recorded (%v)", k, kinds)
		}
	}
	// The blackout kills a full window, so at least one drop must be
	// attributed to it (congestion may add queue-full drops on top).
	var blackout bool
	for _, e := range c.Events() {
		if e.Kind == Drop && e.Cause == netem.DropBlackout {
			blackout = true
		}
	}
	if !blackout {
		t.Error("no blackout-attributed drop recorded")
	}
}
