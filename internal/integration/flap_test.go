package integration

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/trace"
	"tcppr/internal/workload"
)

// linkTap is a test netem.Observer that hears only per-link deliveries
// ('d') and drops ('x').
type linkTap func(kind byte, l *netem.Link, p *netem.Packet)

func (linkTap) PacketSent(*netem.Packet)                                                       {}
func (linkTap) PacketEnqueued(*netem.Link, *netem.Packet, sim.Time, sim.Time, sim.Time)        {}
func (f linkTap) PacketDelivered(l *netem.Link, p *netem.Packet)                               { f('d', l, p) }
func (f linkTap) PacketDropped(l *netem.Link, p *netem.Packet, _ netem.DropCause)              { f('x', l, p) }
func (linkTap) PacketRepair(*netem.Link, *netem.Packet, netem.RepairAction, sim.Time)          {}
func (linkTap) PacketDuplicated(*netem.Link, *netem.Packet, *netem.Packet, sim.Time, sim.Time) {}

// exitEvent is one delivery ('d') or drop ('x') on a path's exit hop.
type exitEvent struct {
	at   sim.Time
	link string
	kind byte
}

// flapRun drives one TCP-PR flow over the multipath topology with a
// deterministically flapping forward route, recording the flow trace and
// the deliveries and drops on every path's exit hop. The returned log is
// the flow trace's TSV followed by one line per exit-hop event.
func flapRun(t *testing.T, period time.Duration) (*topo.Multipath, *trace.Recorder, []exitEvent, string) {
	t.Helper()
	sched := sim.NewScheduler()
	m := topo.NewMultipath(sched, 3, 10*time.Millisecond)

	fwd := routing.NewFlap(m.FwdPaths, period, sched)
	rev := routing.Static{Path: m.RevPaths[0]}
	f := tcp.NewFlow(m.Net, 1, m.Src, m.Dst, fwd, rev)

	rec := trace.NewRecorder()
	rec.Attach(f)
	var exits []exitEvent
	var buf bytes.Buffer
	exitHop := map[*netem.Link]bool{}
	for _, p := range m.FwdPaths {
		exitHop[p[len(p)-1]] = true // a delivery here pins which path carried the packet
	}
	m.Net.Observe(linkTap(func(kind byte, l *netem.Link, pkt *netem.Packet) {
		if !exitHop[l] {
			return
		}
		exits = append(exits, exitEvent{sched.Now(), l.String(), kind})
		fmt.Fprintf(&buf, "%.6f\t%c\t%s\t%d\t%d\t%d\n",
			time.Duration(sched.Now()).Seconds(), kind, l, pkt.Flow, pkt.ID, pkt.Size)
	}))
	workload.NewFlow(f, workload.TCPPR, workload.PRParams{}, 0)
	sched.RunUntil(10 * time.Second)

	var tsv bytes.Buffer
	if err := rec.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	return m, rec, exits, tsv.String() + buf.String()
}

// TestFlapLeavesInFlightPacketsOnOldPath pins the source-routing contract
// under route flaps: a packet routed before the flap finishes its journey
// on the old path (deliveries on a path's exit hop keep appearing after
// the router has moved on), and the straddle reorders arrivals at the
// receiver. The paths differ by two hops (20 ms), far more than a packet
// spacing, so a flap from the long path to a shorter one MUST reorder.
func TestFlapLeavesInFlightPacketsOnOldPath(t *testing.T) {
	const period = 250 * time.Millisecond
	m, rec, exits, _ := flapRun(t, period)

	// Index each exit hop back to its path position in the flap cycle.
	pathOf := map[string]int{}
	for i, p := range m.FwdPaths {
		pathOf[p[len(p)-1].String()] = i
	}
	afterFlap := 0
	for _, e := range exits {
		if e.kind != 'd' {
			continue
		}
		i, ok := pathOf[e.link]
		if !ok {
			t.Fatalf("delivery on unexpected link %s", e.link)
		}
		// The path the flap router was selecting at delivery time.
		active := int(e.at/sim.Time(period)) % len(m.FwdPaths)
		if i != active {
			afterFlap++
		}
	}
	if afterFlap == 0 {
		t.Error("no packet ever completed delivery on a path after the router flapped away from it")
	}
	if rec.ReorderRate() == 0 {
		t.Error("flapping across paths of different lengths produced no receiver-side reordering")
	}
	arrivals := 0
	for _, e := range rec.Events {
		if e.Kind == trace.DataRecv {
			arrivals++
		}
	}
	if arrivals < 1000 {
		t.Errorf("only %d data arrivals in 10s; the flow is not making progress under flaps", arrivals)
	}
}

// TestFlapDeterminism replays the flap run and requires the combined
// flow + link event logs to be byte-identical: route flaps are a pure
// function of virtual time and must not perturb reproducibility.
func TestFlapDeterminism(t *testing.T) {
	_, _, _, log1 := flapRun(t, 250*time.Millisecond)
	_, _, _, log2 := flapRun(t, 250*time.Millisecond)
	if log1 != log2 {
		t.Error("flap-run event logs differ across identical runs")
	}
	if len(log1) == 0 {
		t.Fatal("flap run recorded nothing")
	}
}
