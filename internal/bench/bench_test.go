package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tcppr/internal/netem"
	"tcppr/internal/psim"
	"tcppr/internal/sim"
	"tcppr/internal/workload"
)

func TestSuiteNamesCoverBaseline(t *testing.T) {
	suite := Suite()
	names := make(map[string]bool, len(suite))
	for _, bn := range suite {
		if bn.Name == "" || bn.F == nil {
			t.Fatalf("malformed suite entry %+v", bn)
		}
		if names[bn.Name] {
			t.Fatalf("duplicate suite entry %q", bn.Name)
		}
		names[bn.Name] = true
	}
	for _, base := range Baseline {
		if !names[base.Name] {
			t.Errorf("baseline %q has no suite entry", base.Name)
		}
	}
}

// TestSpanDetachedZeroAllocs is the tracing-overhead gate: with no
// collector attached, the span observer seam must leave the per-packet
// forwarding path at exactly 0 allocs/op.
func TestSpanDetachedZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate in -short mode")
	}
	r := testing.Benchmark(func(b *testing.B) { benchSpanDetached(b, new(heapCounters)) })
	if got := r.AllocsPerOp(); got != 0 {
		t.Fatalf("detached forwarding allocates %d allocs/op, want 0", got)
	}
}

// TestEngineObsDetachedZeroAllocs is the engine-telemetry counterpart of
// the span gate: a quiet heartbeat pulse (pooled timer, off-interval
// beats) must leave the per-packet forwarding path at exactly 0
// allocs/op, so attaching a watchdog or heartbeat never taxes the event
// hot path.
func TestEngineObsDetachedZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate in -short mode")
	}
	r := testing.Benchmark(func(b *testing.B) { benchEngineObsQuietHeartbeat(b, new(heapCounters)) })
	if got := r.AllocsPerOp(); got != 0 {
		t.Fatalf("forwarding under a quiet heartbeat allocates %d allocs/op, want 0", got)
	}
}

// TestSchedulerPatternGates holds the timer- and lane-pattern entries at 0
// allocs/op and at their exact queue cost per op: an RTO pushed out is one
// in-place re-arm and nothing else; a per-packet hold timer on plain events
// is one extra push and one cancelled pop; a lane occurrence is a ring
// append that never touches the heap, whether it fires (lane-fifo) or is
// cancelled (lane-cancel, whose one push and pop are the ACK event's own).
// A forwarded packet is one lane append per hop — its arrival; the queue
// slot it frees on the way is no event — and the heap sees the two links'
// anchors once per batch the body drains (one packet, then 256 at a time).
func TestSchedulerPatternGates(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark gate in -short mode")
	}
	for _, bn := range Suite() {
		var want sim.Stats
		anchorsPerBatch := uint64(0)
		switch bn.Name {
		case "link/forwarding":
			want = sim.Stats{LanePushes: 2}
			anchorsPerBatch = 2
		case "scheduler/timer-rearm-later":
			want = sim.Stats{Pushes: 1, Pops: 1, Rearms: 1}
		case "scheduler/cancel-heavy":
			want = sim.Stats{Pushes: 2, Pops: 2, CancelledPops: 1}
		case "scheduler/lane-fifo":
			want = sim.Stats{LanePushes: 1}
		case "scheduler/lane-cancel":
			want = sim.Stats{Pushes: 1, Pops: 1, LanePushes: 1}
		default:
			continue
		}
		m := Run(bn)
		if m.AllocsPerOp != 0 {
			t.Errorf("%s allocates %d allocs/op, want 0", bn.Name, m.AllocsPerOp)
		}
		if m.Heap == nil {
			t.Fatalf("%s recorded no heap counters", bn.Name)
		}
		n := uint64(m.Ops)
		got := *m.Heap
		anchors := anchorsPerBatch * (1 + (n+254)/256)
		if got.Pushes != want.Pushes*n+anchors || got.Pops != want.Pops*n+anchors ||
			got.CancelledPops != want.CancelledPops*n || got.Rearms != want.Rearms*n ||
			got.LanePushes != want.LanePushes*n || got.LaneFallbacks != want.LaneFallbacks*n {
			t.Errorf("%s over %d ops: %+v, want per op %+v", bn.Name, n, got, want)
		}
	}
}

// TestLanesKeepTheHeapSmall holds what lanes buy on the two
// whole-simulation entries they were built for, as exact counts of one op:
// a TCP-PR flow's heap stays at a few dozen entries (798 when every
// in-flight packet and loss timer had its own) and almost none of its pops
// are dead timers (7.5 % before); the one-shard city's heap stays under a
// thousand (6,451 before).
func TestLanesKeepTheHeapSmall(t *testing.T) {
	var flow heapCounters
	net, segs := steadyStateOp(workload.TCPPR)
	if segs == 0 {
		t.Fatal("flow/pr-steady-state made no progress")
	}
	flow.add(net.Scheduler(), sim.Stats{})
	if st := flow.total; st.MaxHeapLen > 128 || st.CancelledPops*100 > st.Pops {
		t.Errorf("flow/pr-steady-state: max heap length %d (want <= 128), %d of %d pops cancelled (want <= 1%%)",
			st.MaxHeapLen, st.CancelledPops, st.Pops)
	}

	var city heapCounters
	eng, _ := psim.BuildCity(cityRun(1))
	eng.Run(sim.Time(cityHorizon))
	city.addShards(eng)
	if st := city.total; st.MaxHeapLen > 1000 || st.LanePushes == 0 {
		t.Errorf("psim/city-1shard: max heap length %d (want <= 1000), %d lane pushes", st.MaxHeapLen, st.LanePushes)
	}
}

// TestOneEventPerHop holds the event count of the three whole-simulation
// entries at one event per link traversal plus at most 5 % for everything
// else (timers, sampler-free workload events, shard injections): a packet
// crossing a link costs its arrival and nothing more, since the queue slot
// it frees on the way is settled without an event. Exact counts of one op.
func TestOneEventPerHop(t *testing.T) {
	check := func(name string, events uint64, nets ...*netem.Network) {
		t.Helper()
		var hops uint64
		for _, n := range nets {
			for _, l := range n.Links() {
				hops += l.Stats().Delivered
			}
		}
		t.Logf("%s: %d events for %d hops (%.3f events/hop)", name, events, hops, float64(events)/float64(hops))
		if hops == 0 || float64(events) > 1.05*float64(hops) {
			t.Errorf("%s: more than 1.05 events per hop", name)
		}
	}
	for name, proto := range map[string]string{"flow/pr-steady-state": workload.TCPPR, "flow/sack-steady-state": workload.TCPSACK} {
		net, _ := steadyStateOp(proto)
		check(name, net.Scheduler().Processed(), net)
	}
	eng, _ := psim.BuildCity(cityRun(1))
	eng.Run(sim.Time(cityHorizon))
	var nets []*netem.Network
	for _, sh := range eng.Shards() {
		nets = append(nets, sh.Net)
	}
	check("psim/city-1shard", eng.Processed(), nets...)
}

func TestRegressions(t *testing.T) {
	art := Artifact{
		Baseline: []Measurement{{Name: "x", AllocsPerOp: 10}},
		Results:  []Measurement{{Name: "x", AllocsPerOp: 7}},
	}
	if got := Regressions(art, 0.30); len(got) != 0 {
		t.Fatalf("7/10 allocs at 30%% threshold flagged: %v", got)
	}
	art.Results[0].AllocsPerOp = 8
	if got := Regressions(art, 0.30); len(got) != 1 {
		t.Fatalf("8/10 allocs at 30%% threshold not flagged: %v", got)
	}
	art.Results = nil
	if got := Regressions(art, 0.30); len(got) != 1 {
		t.Fatalf("missing result not flagged: %v", got)
	}
}

func TestRunMeasuresSimRate(t *testing.T) {
	m := Run(Bench{
		Name:       "trivial",
		SimSeconds: 1,
		F: func(b *testing.B, _ *heapCounters) {
			x := 0
			for i := 0; i < b.N; i++ {
				x += i
			}
			_ = x
		},
	})
	if m.Name != "trivial" || m.NsPerOp <= 0 {
		t.Fatalf("bad measurement %+v", m)
	}
	if m.SimSecondsPerWallSecond <= 0 {
		t.Fatalf("sim rate not computed: %+v", m)
	}
}

func TestArtifactWriteFile(t *testing.T) {
	art := Artifact{
		GoVersion: "go0.0",
		Results:   []Measurement{{Name: "x", NsPerOp: 1.5, AllocsPerOp: 2, BytesPerOp: 3}},
		Baseline:  Baseline,
	}
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Artifact
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(back.Results) != 1 || back.Results[0].Name != "x" {
		t.Fatalf("round trip lost results: %+v", back)
	}
	if len(back.Baseline) != len(Baseline) {
		t.Fatalf("round trip lost baseline: %+v", back)
	}
}
