// Package bench is the simulator's performance-regression harness. It
// runs a fixed suite of microbenchmarks (scheduler event throughput,
// timer re-arming, per-packet link forwarding) and whole-simulation
// slices (steady-state flows, one Fig 6 cell) through testing.Benchmark,
// and renders the results as a JSON artifact (BENCH_sim.json at the repo
// root) recording ns/op, allocs/op, B/op, and — for the whole-simulation
// entries — simulated seconds per wall second, plus the exact event-queue
// counters (sim.Stats) of the schedulers each entry ran.
//
// The artifact also embeds the pre-pooling Baseline numbers so the
// allocation regressions are self-describing: Regressions() checks that
// the hot-path benchmarks keep their allocs/op reduction relative to that
// baseline. Alloc counts are deterministic per Go version, unlike ns/op,
// so they are the guarded quantity; timings are informational.
//
// The suite is regenerated by the root TestBenchArtifact, which only runs
// under -bench (see PERFORMANCE.md):
//
//	go test -bench . -benchtime 1x -run TestBenchArtifact .
//
// Each benchmark warms the relevant free lists before ResetTimer, so even
// -benchtime 1x measures the steady state rather than pool growth.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"tcppr/internal/engineobs"
	"tcppr/internal/experiments"
	"tcppr/internal/netem"
	"tcppr/internal/psim"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// Measurement is one benchmark's recorded numbers.
type Measurement struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// SimSecondsPerWallSecond is the simulation rate for whole-simulation
	// benchmarks (zero for microbenchmarks, where it is meaningless).
	SimSecondsPerWallSecond float64 `json:"sim_seconds_per_wall_second,omitempty"`
	// Ops is the b.N of the recorded run, and Heap the event-queue
	// counters of every scheduler the entry ran, totalled over the timed
	// region of those Ops (MaxHeapLen: the largest seen). They are exact
	// counts of a deterministic program, the same on any machine at the
	// same Ops.
	Ops  int        `json:"ops,omitempty"`
	Heap *sim.Stats `json:"heap,omitempty"`
}

// Artifact is the JSON document written to BENCH_sim.json.
type Artifact struct {
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	NumCPU    int           `json:"num_cpu"`
	Results   []Measurement `json:"results"`
	// Baseline carries the pre-pooling numbers the allocation regression
	// gate compares against (see Baseline).
	Baseline []Measurement `json:"baseline"`
}

// Baseline records the hot-path numbers measured immediately before the
// pooling pass that covers them: scheduler events and link forwarding are
// pre event/packet pooling (one pooled-free event allocation per After;
// packet + path slice + two closures per hop); the flow steady states are
// pre flow-layer pooling (a heap-allocated flight entry plus a boxed Seg
// per data packet, and a boxed Ack plus a fresh SACK-block slice per
// acknowledgment). ns/op and B/op are from the development machine and
// informational; AllocsPerOp is machine-independent and is what
// Regressions guards.
var Baseline = []Measurement{
	{Name: "scheduler/events", NsPerOp: 55.5, AllocsPerOp: 1, BytesPerOp: 47},
	{Name: "link/forwarding", NsPerOp: 1210, AllocsPerOp: 10, BytesPerOp: 400},
	{Name: "flow/pr-steady-state", NsPerOp: 64602481, AllocsPerOp: 48555, BytesPerOp: 2646640},
	{Name: "flow/sack-steady-state", NsPerOp: 71724476, AllocsPerOp: 33841, BytesPerOp: 2013072},
}

// Bench is one suite entry: a name, the simulated duration covered by a
// single op (zero for microbenchmarks), and the benchmark body, which
// adds the schedulers it ran to heap.
type Bench struct {
	Name       string
	SimSeconds float64
	F          func(b *testing.B, heap *heapCounters)
}

// Suite returns the fixed benchmark suite in artifact order.
func Suite() []Bench {
	return []Bench{
		{Name: "scheduler/events", F: benchSchedulerEvents},
		{Name: "scheduler/timer", F: benchSchedulerTimer},
		{Name: "scheduler/timer-rearm-later", F: benchTimerRearmLater},
		{Name: "scheduler/cancel-heavy", F: benchCancelHeavy},
		{Name: "scheduler/lane-fifo", F: benchLaneFIFO},
		{Name: "scheduler/lane-cancel", F: benchLaneCancel},
		{Name: "link/forwarding", F: benchLinkForwarding},
		{Name: "link/reorder-swap", F: benchLinkReorderSwap},
		{Name: "link/repair-active", F: benchLinkRepairActive},
		{Name: "span/detached-forwarding", F: benchSpanDetached},
		{Name: "engineobs/quiet-heartbeat", F: benchEngineObsQuietHeartbeat},
		{Name: "flow/pr-steady-state", SimSeconds: 10, F: steadyState(workload.TCPPR)},
		{Name: "flow/sack-steady-state", SimSeconds: 10, F: steadyState(workload.TCPSACK)},
		{Name: "figure/fig6-cell", SimSeconds: 10, F: benchFig6Cell},
		{Name: "psim/city-1shard", SimSeconds: cityHorizon.Seconds(), F: cityCell(1)},
		{Name: "psim/city-4shard", SimSeconds: cityHorizon.Seconds(), F: cityCell(4)},
		{Name: "psim/city-4shard-profiled", SimSeconds: cityHorizon.Seconds(), F: cityCellProfiled(4)},
	}
}

// Run executes one suite entry through testing.Benchmark.
func Run(bn Bench) Measurement {
	// testing.Benchmark calls the body with a growing b.N; the counters
	// kept are those of the last call, the one r reports.
	var heap heapCounters
	r := testing.Benchmark(func(b *testing.B) {
		heap = heapCounters{}
		bn.F(b, &heap)
	})
	m := Measurement{
		Name:        bn.Name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Ops:         r.N,
	}
	if heap.total != (sim.Stats{}) {
		m.Heap = &heap.total
	}
	if bn.SimSeconds > 0 && m.NsPerOp > 0 {
		m.SimSecondsPerWallSecond = bn.SimSeconds / (m.NsPerOp * 1e-9)
	}
	return m
}

// heapCounters totals the queue counters of the schedulers a benchmark
// body runs in its timed region.
type heapCounters struct{ total sim.Stats }

// add accounts for what s did since before (the zero Stats for a scheduler
// created inside the timed region).
func (h *heapCounters) add(s *sim.Scheduler, before sim.Stats) {
	h.total.Add(s.Stats(), before)
}

// addShards adds every shard scheduler of a finished engine run.
func (h *heapCounters) addShards(eng *psim.Engine) {
	h.total.Add(eng.SchedulerStats(), sim.Stats{})
}

// RunSuite runs the whole suite and assembles the artifact.
func RunSuite() Artifact {
	art := Artifact{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Baseline:  Baseline,
	}
	for _, bn := range Suite() {
		art.Results = append(art.Results, Run(bn))
	}
	return art
}

// WriteFile renders the artifact as indented JSON.
func (a Artifact) WriteFile(path string) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Find returns the named measurement from a result set.
func Find(ms []Measurement, name string) (Measurement, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return Measurement{}, false
}

// Regressions compares the artifact's results against its baseline and
// reports every baselined benchmark whose allocs/op did not shrink by at
// least the required fraction (0.30 = thirty percent fewer allocations).
func Regressions(a Artifact, required float64) []string {
	var out []string
	for _, base := range a.Baseline {
		cur, ok := Find(a.Results, base.Name)
		if !ok {
			out = append(out, fmt.Sprintf("%s: missing from results", base.Name))
			continue
		}
		allowed := float64(base.AllocsPerOp) * (1 - required)
		if float64(cur.AllocsPerOp) > allowed {
			out = append(out, fmt.Sprintf("%s: allocs/op %d, want <= %.2f (baseline %d minus %.0f%%)",
				base.Name, cur.AllocsPerOp, allowed, base.AllocsPerOp, required*100))
		}
	}
	return out
}

// --- suite bodies --------------------------------------------------------

// benchSchedulerEvents measures raw event throughput with a self-rearming
// callback, the scheduler's steady-state pattern. The warm-up pass grows
// the free list so the timed region reuses pooled events.
func benchSchedulerEvents(b *testing.B, heap *heapCounters) {
	s := sim.NewScheduler()
	n, limit := 0, 0
	var tick func()
	tick = func() {
		n++
		if n < limit {
			s.After(time.Microsecond, tick)
		}
	}
	limit = 1024
	s.After(time.Microsecond, tick)
	s.Run()

	b.ReportAllocs()
	n, limit = 0, b.N
	before := s.Stats()
	b.ResetTimer()
	s.After(time.Microsecond, tick)
	s.Run()
	heap.add(s, before)
}

// benchSchedulerTimer measures the reusable Timer's re-arm cycle, the
// pattern every RTO and delayed-ACK timer follows.
func benchSchedulerTimer(b *testing.B, heap *heapCounters) {
	s := sim.NewScheduler()
	n, limit := 0, 0
	var tm *sim.Timer
	tm = sim.NewTimer(s, func() {
		n++
		if n < limit {
			tm.ResetAfter(time.Microsecond)
		}
	})
	limit = 1024
	tm.ResetAfter(time.Microsecond)
	s.Run()

	b.ReportAllocs()
	n, limit = 0, b.N
	before := s.Stats()
	b.ResetTimer()
	tm.ResetAfter(time.Microsecond)
	s.Run()
	heap.add(s, before)
}

// benchTimerRearmLater measures the retransmission-timer pattern: about a
// thousand pending events (the ACK clock of a busy cell), each of which on
// firing pushes one shared sim.Timer's deadline out to now+RTO and re-arms
// itself. The RTO lies far beyond the next ACK, so the timer never fires
// and every Reset moves a queued occurrence later — in place, where
// cancel-and-push would leave one dead entry per ACK in the heap for a
// whole RTO. One op is one ACK: a pop, a push and a Reset.
func benchTimerRearmLater(b *testing.B, heap *heapCounters) {
	const pending, rto = 1024, 200 * time.Millisecond
	s := sim.NewScheduler()
	timer := sim.NewTimer(s, func() { b.Fatal("the retransmission timer fired") })
	lcg := uint64(0x9e3779b97f4a7c15)
	var ack func(any)
	ack = func(any) {
		timer.ResetAfter(rto)
		lcg = lcg*6364136223846793005 + 1442695040888963407
		s.AfterFunc(time.Duration(lcg>>44)+1, ack, nil) // up to ~1 ms
	}
	for i := 0; i < pending; i++ {
		ack(nil)
	}
	stepN(s, 4*pending)

	timeSteps(b, heap, s)
}

// benchCancelHeavy measures the generic cancel pattern — a hold timer per
// packet, as the reorder models and the repair box arm them with plain
// events: every ACK cancels the timer of the packet it covers and arms a
// fresh one, three round trips out, for the packet it releases. No timer
// ever fires; each is popped dead at its deadline, so the heap carries
// three windows of cancelled entries. One op is one ACK: two pushes, one
// live and one cancelled pop. benchLaneCancel is the same traffic on a
// lane, which is how TCP-PR arms its loss timers.
func benchCancelHeavy(b *testing.B, heap *heapCounters) {
	const window, spacing = 64, 10 * time.Microsecond
	const mxrtt = 3 * window * spacing
	s := sim.NewScheduler()
	lost := func(any) { b.Fatal("a cancelled loss timer fired") }
	var timers [window]sim.Handle
	n := 0
	var ack func(any)
	ack = func(any) {
		timers[n%window].Cancel()
		timers[n%window] = s.AfterFunc(mxrtt, lost, nil)
		n++
		s.AfterFunc(spacing, ack, nil)
	}
	ack(nil)
	stepN(s, 16*window)

	timeSteps(b, heap, s)
}

// benchLaneFIFO measures the link pattern: sixteen lanes (a link's
// delivery stream each) with thirty-two occurrences in flight, every
// firing appending the next one to its own lane. The heap holds the sixteen
// anchors and nothing else. One op is one occurrence: no push, no pop, one
// ring append and one re-keyed root.
func benchLaneFIFO(b *testing.B, heap *heapCounters) {
	const lanes, inFlight, spacing = 16, 32, 10 * time.Microsecond
	s := sim.NewScheduler()
	ls := make([]sim.Lane, lanes)
	next := func(arg any) {
		l := arg.(*sim.Lane)
		l.At(s.Now()+inFlight*spacing, l)
	}
	for i := range ls {
		l := &ls[i]
		l.Init(s, next)
		for k := 1; k <= inFlight; k++ {
			l.At(sim.Time(k)*spacing+sim.Time(i)*spacing/lanes, l)
		}
	}
	stepN(s, 4*lanes*inFlight)

	timeSteps(b, heap, s)
}

// benchLaneCancel measures TCP-PR's per-packet loss-timer pattern on the
// lane the sender uses: benchCancelHeavy's traffic, with the timers on a
// sim.Lane. A cancelled timer is dropped from the lane's ring when the head
// passes it and never reaches the heap. One op is one ACK: the ACK event's
// own push and pop, and one ring append.
func benchLaneCancel(b *testing.B, heap *heapCounters) {
	const window, spacing = 64, 10 * time.Microsecond
	const mxrtt = 3 * window * spacing
	s := sim.NewScheduler()
	var lossTimers sim.Lane
	lossTimers.Init(s, func(any) { b.Fatal("a cancelled loss timer fired") })
	var timers [window]sim.LaneHandle
	n := 0
	var ack func(any)
	ack = func(any) {
		lossTimers.Cancel(timers[n%window])
		timers[n%window] = lossTimers.At(s.Now()+mxrtt, nil)
		n++
		s.AfterFunc(spacing, ack, nil)
	}
	ack(nil)
	stepN(s, 16*window)

	timeSteps(b, heap, s)
}

// timeSteps is the timed region of the scheduler-pattern entries: b.N
// events of a scheduler the body has already warmed up.
func timeSteps(b *testing.B, heap *heapCounters, s *sim.Scheduler) {
	b.ReportAllocs()
	before := s.Stats()
	b.ResetTimer()
	stepN(s, b.N)
	heap.add(s, before)
}

// stepN executes n events.
func stepN(s *sim.Scheduler, n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// benchLinkForwarding measures per-packet cost through a two-hop path
// using the packet pool, exactly as tcp.Flow transmits.
func benchLinkForwarding(b *testing.B, heap *heapCounters) {
	forwardingBench(b, heap, nil)
}

// benchLinkReorderSwap measures the same two-hop path with the severe
// swap-distance reorder model on the first hop — the marginal cost of
// the ReorderModel seam when it is actually scrambling (45% of packets
// enter custody). Informational: not part of the Baseline gate, but the
// netem-level TestReorderDetachedZeroAllocs pins the nil-model path at
// exactly 0 allocs/op.
func benchLinkReorderSwap(b *testing.B, heap *heapCounters) {
	forwardingBench(b, heap, func(net *netem.Network) {
		probs := []float64{0.45, 0.36, 0.28, 0.21, 0.15, 0.10, 0.06, 0.03}
		net.FindLink("a", "b").SetReorderModel(
			netem.NewSwapDistance(probs, 0, sim.NewRand(1)))
	})
}

// benchLinkRepairActive measures the two-hop path with the severe swap
// model scrambling the first hop and a default repair middlebox
// resequencing its deliveries — the marginal cost of the repair seam when
// it is actually buffering (every displaced packet enters box custody).
// Packets carry sequenced payloads from a reused ring so the box engages
// without per-op payload allocation. Informational: not part of the
// Baseline gate, but the netem-level TestRepairDetachedZeroAllocs pins
// the nil-box path at exactly 0 allocs/op.
func benchLinkRepairActive(b *testing.B, heap *heapCounters) {
	s := sim.NewScheduler()
	net := netem.NewNetwork(s)
	l1 := net.AddLink("a", "b", 1e9, time.Microsecond, 1<<30)
	l2 := net.AddLink("b", "c", 1e9, time.Microsecond, 1<<30)
	path := []*netem.Link{l1, l2}
	probs := []float64{0.45, 0.36, 0.28, 0.21, 0.15, 0.10, 0.06, 0.03}
	l1.SetReorderModel(netem.NewSwapDistance(probs, 0, sim.NewRand(1)))
	l1.SetRepair(netem.NewRepairBox(netem.RepairConfig{}))
	delivered := 0
	net.Node("c").Handle(1, func(*netem.Packet) { delivered++ })
	// The payload ring is far deeper than the box + model custody window,
	// so a held packet's Seg is never overwritten while in flight.
	ring := make([]tcp.Seg, 4096)
	var seq int64
	send := func(n int) {
		for i := 0; i < n; i++ {
			p := net.NewPacket()
			p.Flow = 1
			p.Size = 1000
			p.Path = path
			sg := &ring[seq%int64(len(ring))]
			sg.Seq = seq
			seq++
			p.Payload = sg
			net.Send(p)
			if i%256 == 0 {
				s.Run()
			}
		}
		s.Run()
	}
	send(1024)

	b.ReportAllocs()
	delivered = 0
	before := s.Stats()
	b.ResetTimer()
	send(b.N)
	heap.add(s, before)
	if delivered != b.N {
		b.Fatalf("delivered %d, want %d", delivered, b.N)
	}
}

// benchSpanDetached re-measures the same forwarding path with the span
// observer seam explicitly detached. Every trace hook on the hot path
// (send, enqueue, duplicate, drop, deliver) must vanish behind the
// nil-observer check; the root TestSpanDetachedZeroAllocs gate holds this
// at exactly 0 allocs/op.
func benchSpanDetached(b *testing.B, heap *heapCounters) {
	forwardingBench(b, heap, func(net *netem.Network) { net.SetObserver(nil) })
}

// benchEngineObsQuietHeartbeat measures the two-hop forwarding path with
// an engineobs heartbeat pulsing on the scheduler but never due to emit
// (hour-long wall interval). The pulse is a pooled self-rearming timer
// and an off-interval Beat reads only scheduler counters, so the event
// hot path must stay at exactly 0 allocs/op — the
// TestEngineObsDetachedZeroAllocs gate holds it there, the telemetry
// counterpart of span/detached-forwarding. The body mirrors
// forwardingBench but drains by delivery count instead of run-to-empty,
// keeping the pulse alive across the whole measured run.
func benchEngineObsQuietHeartbeat(b *testing.B, heap *heapCounters) {
	s := sim.NewScheduler()
	net := netem.NewNetwork(s)
	l1 := net.AddLink("a", "b", 1e9, time.Microsecond, 1<<30)
	l2 := net.AddLink("b", "c", 1e9, time.Microsecond, 1<<30)
	path := []*netem.Link{l1, l2}
	hb := engineobs.NewHeartbeat(engineobs.HeartbeatConfig{Interval: time.Hour}, s)
	hb.SetWatchdog(nil)
	hb.Attach(s, time.Millisecond)
	sent, delivered := 0, 0
	net.Node("c").Handle(1, func(*netem.Packet) { delivered++ })
	send := func(n int) {
		for i := 0; i < n; i++ {
			p := net.NewPacket()
			p.Flow = 1
			p.Size = 1000
			p.Path = path
			net.Send(p)
			sent++
			if i%256 == 0 {
				for delivered != sent && s.Step() {
				}
			}
		}
		for delivered != sent && s.Step() {
		}
	}
	send(1024)

	b.ReportAllocs()
	sent, delivered = 0, 0
	before := s.Stats()
	b.ResetTimer()
	send(b.N)
	heap.add(s, before)
	if delivered != b.N {
		b.Fatalf("delivered %d, want %d", delivered, b.N)
	}
}

// forwardingBench is the shared two-hop forwarding body; setup, if
// non-nil, runs after the network is built and before any packet moves.
func forwardingBench(b *testing.B, heap *heapCounters, setup func(*netem.Network)) {
	s := sim.NewScheduler()
	net := netem.NewNetwork(s)
	l1 := net.AddLink("a", "b", 1e9, time.Microsecond, 1<<30)
	l2 := net.AddLink("b", "c", 1e9, time.Microsecond, 1<<30)
	path := []*netem.Link{l1, l2}
	if setup != nil {
		setup(net)
	}
	delivered := 0
	net.Node("c").Handle(1, func(*netem.Packet) { delivered++ })
	send := func(n int) {
		for i := 0; i < n; i++ {
			p := net.NewPacket()
			p.Flow = 1
			p.Size = 1000
			p.Path = path
			net.Send(p)
			if i%256 == 0 {
				s.Run()
			}
		}
		s.Run()
	}
	send(1024)

	b.ReportAllocs()
	delivered = 0
	before := s.Stats()
	b.ResetTimer()
	send(b.N)
	heap.add(s, before)
	if delivered != b.N {
		b.Fatalf("delivered %d, want %d", delivered, b.N)
	}
}

// steadyState runs one full-utilization flow on a dumbbell for 10
// simulated seconds per op.
func steadyState(proto string) func(b *testing.B, heap *heapCounters) {
	return func(b *testing.B, heap *heapCounters) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			net, segs := steadyStateOp(proto)
			if segs == 0 {
				b.Fatal("no progress")
			}
			heap.add(net.Scheduler(), sim.Stats{})
		}
	}
}

// steadyStateOp is one op of a steady-state flow entry; it returns the
// network it ran and the segments delivered.
func steadyStateOp(proto string) (*netem.Network, int64) {
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
		routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
	workload.NewFlow(f, proto, workload.PRParams{}, 0)
	sched.RunUntil(10 * time.Second)
	return d.Net, f.Receiver().UniqueSegs
}

// cityHorizon is the simulated duration of one psim city op.
const cityHorizon = 2 * time.Second

// cityCell runs the same sharded-city workload at a given shard count:
// 8 districts of on/off web sources plus backbone bulk flows on the
// internal/psim parallel engine. The 1-shard and 4-shard entries share
// the seed and workload, so their sim_seconds_per_wall_second ratio is
// the engine's parallel speedup on the recording machine (compare
// num_cpu in the artifact header — the ratio cannot exceed it).
func cityCell(shards int) func(b *testing.B, heap *heapCounters) {
	return func(b *testing.B, heap *heapCounters) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng, st := psim.BuildCity(cityRun(shards))
			t0 := time.Now()
			eng.Run(sim.Time(cityHorizon))
			if st.Finish(time.Since(t0)).Transfers == 0 {
				b.Fatal("no transfers completed")
			}
			heap.addShards(eng)
		}
	}
}

// cityRun is the suite's city workload at a given shard count.
func cityRun(shards int) psim.CityRun {
	return psim.CityRun{
		City:    topo.CityConfig{Districts: 8, HostsPerDistrict: 8},
		Shards:  shards,
		Seed:    42,
		Horizon: cityHorizon,
	}
}

// cityCellProfiled runs the 4-shard city cell with the full engineobs
// telemetry stack attached (window profiler plus a quiet heartbeat
// feeding a long-timeout watchdog). Its sim_seconds_per_wall_second
// against psim/city-4shard is the telemetry overhead on the recording
// machine — informational, not gated; the observer seam's timing calls
// happen per barrier window, not per event.
func cityCellProfiled(shards int) func(b *testing.B, heap *heapCounters) {
	return func(b *testing.B, heap *heapCounters) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng, st := psim.BuildCity(cityRun(shards))
			scheds := make([]*sim.Scheduler, 0, len(eng.Shards()))
			for _, sh := range eng.Shards() {
				scheds = append(scheds, sh.Sched)
			}
			prof := engineobs.NewProfiler(len(scheds))
			hb := engineobs.NewHeartbeat(engineobs.HeartbeatConfig{Interval: time.Hour}, scheds...)
			wd := engineobs.NewWatchdog(engineobs.WatchdogConfig{
				Timeout:  time.Hour,
				Diagnose: engineobs.Diagnostics(hb, prof),
				OnStall:  func() {},
			})
			hb.SetWatchdog(wd)
			eng.SetObserver(engineobs.Multi(prof, hb))
			wd.Start()
			t0 := time.Now()
			eng.Run(sim.Time(cityHorizon))
			wall := time.Since(t0)
			wd.Stop()
			res := st.Finish(wall)
			if res.Transfers == 0 {
				b.Fatal("no transfers completed")
			}
			if sum := prof.Summary(0); sum.Windows == 0 || sum.Events != res.Events {
				b.Fatalf("profiler lost events: %d windows, %d of %d events",
					sum.Windows, sum.Events, res.Events)
			}
			heap.addShards(eng)
		}
	}
}

// benchFig6Cell runs one reduced-window Fig 6 multipath cell (TCP-PR at
// full multipath, where reordering stress is maximal); the harness hands
// back the cell's scheduler counters.
func benchFig6Cell(b *testing.B, heap *heapCounters) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig6(experiments.Fig6Config{
			Protocols:  []string{workload.TCPPR},
			Epsilons:   []float64{0},
			LinkDelays: []time.Duration{10 * time.Millisecond},
			Durations:  experiments.Durations{Warm: 5 * time.Second, Measure: 5 * time.Second},
		})
		if err != nil || len(pts) != 1 {
			b.Fatalf("missing result: %v", err)
		}
		heap.total.Add(pts[0].Heap, sim.Stats{})
	}
}
