// Package tcppr's repository-root benchmarks regenerate a reduced-window
// slice of every figure in the paper's evaluation (Figures 2, 3, 4, 6)
// plus the DESIGN.md ablations, and include microbenchmarks of the
// simulator core. One benchmark iteration = one complete simulation
// (warm-up + measurement window); ns/op therefore reports wall-clock cost
// per simulated scenario. The shapes asserted in the test suite (who wins,
// by roughly what factor) hold at these reduced windows; cmd/experiments
// runs the paper-length versions.
package main

import (
	"testing"
	"time"

	"tcppr/internal/experiments"
	"tcppr/internal/metrics"
	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// benchDur is a shortened measurement protocol for benchmarks.
var benchDur = experiments.Durations{Warm: 15 * time.Second, Measure: 10 * time.Second}

// benchSpec runs a registered experiment once per iteration; with smoke
// set, only its Smoke cells.
func benchSpec(b *testing.B, name string, smoke bool) {
	b.Helper()
	spec, _ := experiments.Lookup(name)
	for i := 0; i < b.N; i++ {
		tables, err := spec.Run(experiments.RunConfig{Durations: benchDur, Smoke: smoke})
		if err != nil || len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("missing result: %v", err)
		}
	}
}

// BenchmarkFig2Dumbbell runs the 8-flow dumbbell cell (fig2's Smoke cell).
func BenchmarkFig2Dumbbell(b *testing.B) {
	benchSpec(b, "fig2", true)
}

func BenchmarkFig2ParkingLot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.RunFig2(experiments.Fig2Config{
			Topologies: []string{"parkinglot"},
			FlowCounts: []int{8},
			Durations:  benchDur,
		})
		if err != nil || len(tables[0].Rows) != 1 {
			b.Fatalf("missing result: %v", err)
		}
	}
}

func BenchmarkFig3CoV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := experiments.RunFig3(experiments.Fig3Config{
			Topologies:     []string{"dumbbell"},
			BandwidthsMbps: []float64{5},
			Flows:          8,
			Seeds:          1,
			Durations:      benchDur,
		})
		if err != nil || len(tables[0].Rows) != 1 {
			b.Fatalf("missing result: %v", err)
		}
	}
}

// BenchmarkFig4AlphaBetaCell runs the α = 0.995, β = 3, 8-flow dumbbell
// cell (fig4's Smoke cell).
func BenchmarkFig4AlphaBetaCell(b *testing.B) {
	benchSpec(b, "fig4", true)
}

// BenchmarkFig6 covers one cell per regime: the full-multipath case where
// TCP-PR must win and the single-path case where everyone ties.
func BenchmarkFig6MultipathPR(b *testing.B) {
	benchFig6Cell(b, workload.TCPPR, 0)
}

func BenchmarkFig6MultipathDSACK(b *testing.B) {
	benchFig6Cell(b, workload.DSACKIn1, 0)
}

func BenchmarkFig6SinglePathPR(b *testing.B) {
	benchFig6Cell(b, workload.TCPPR, 500)
}

func benchFig6Cell(b *testing.B, proto string, eps float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFig6(experiments.Fig6Config{
			Protocols:  []string{proto},
			Epsilons:   []float64{eps},
			LinkDelays: []time.Duration{10 * time.Millisecond},
			Durations:  benchDur,
		})
		if err != nil || len(pts) != 1 {
			b.Fatalf("missing result: %v", err)
		}
	}
}

// BenchmarkAblationBeta runs the β = 3, 8-flow cell (ablation-beta's Smoke
// cell).
func BenchmarkAblationBeta(b *testing.B) {
	benchSpec(b, "ablation-beta", true)
}

func BenchmarkAblationMemorize(b *testing.B) {
	benchSpec(b, "ablation-memorize", false)
}

func BenchmarkAblationSendCwnd(b *testing.B) {
	benchSpec(b, "ablation-sendcwnd", false)
}

// BenchmarkExtThresholdSweep measures the offline threshold-replay
// pipeline (trace a flow, extract samples, sweep beta).
func BenchmarkExtThresholdSweep(b *testing.B) {
	benchSpec(b, "ext-threshold", false)
}

// BenchmarkExtReorderProfile measures the reorder-quantification sweep.
func BenchmarkExtReorderProfile(b *testing.B) {
	benchSpec(b, "ext-reorder", false)
}

// BenchmarkExtRobustnessCellJitter measures the robustness grid, the
// jitter impairment (the DiffServ scenario) among its cells.
func BenchmarkExtRobustnessCellJitter(b *testing.B) {
	benchSpec(b, "ext-robustness", false)
}

// BenchmarkWebWorkload measures the on/off source machinery: finite
// transfers, connection churn, think times.
func BenchmarkWebWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched := sim.NewScheduler()
		d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
		src := workload.NewOnOffSource(d.Net, 10_000, d.Src(0), d.Dst(0),
			routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)},
			workload.OnOffConfig{}, sim.NewRand(5))
		src.Start(0)
		sched.RunUntil(30 * time.Second)
		if src.Transfers == 0 {
			b.Fatal("no transfers completed")
		}
	}
}

// --- Simulator microbenchmarks -------------------------------------------

// BenchmarkSchedulerEvents measures raw event throughput of the
// discrete-event core.
func BenchmarkSchedulerEvents(b *testing.B) {
	s := sim.NewScheduler()
	b.ReportAllocs()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(time.Microsecond, tick)
	b.ResetTimer()
	s.Run()
}

// BenchmarkLinkForwarding measures per-packet cost through a two-hop path,
// drawing packets from the network's pool the way tcp.Flow does.
func BenchmarkLinkForwarding(b *testing.B) {
	s := sim.NewScheduler()
	net := netem.NewNetwork(s)
	l1 := net.AddLink("a", "b", 1e9, time.Microsecond, 1<<30)
	l2 := net.AddLink("b", "c", 1e9, time.Microsecond, 1<<30)
	path := []*netem.Link{l1, l2}
	delivered := 0
	net.Node("c").Handle(1, func(*netem.Packet) { delivered++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := net.NewPacket()
		p.Flow = 1
		p.Size = 1000
		p.Path = path
		net.Send(p)
		if i%1024 == 0 {
			s.Run()
		}
	}
	s.Run()
	if delivered != b.N {
		b.Fatalf("delivered %d, want %d", delivered, b.N)
	}
}

// BenchmarkPRSteadyState measures TCP-PR sender cost per simulated second
// at full utilization on a dumbbell.
func BenchmarkPRSteadyState(b *testing.B) {
	benchSteadyState(b, workload.TCPPR)
}

// BenchmarkSACKSteadyState is the TCP-SACK counterpart.
func BenchmarkSACKSteadyState(b *testing.B) {
	benchSteadyState(b, workload.TCPSACK)
}

func benchSteadyState(b *testing.B, proto string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		sched := sim.NewScheduler()
		d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
		f := tcp.NewFlow(d.Net, 1, d.Src(0), d.Dst(0),
			routing.Static{Path: d.FwdPath(0)}, routing.Static{Path: d.RevPath(0)})
		workload.NewFlow(f, proto, workload.PRParams{}, 0)
		sched.RunUntil(10 * time.Second)
		if f.Receiver().UniqueSegs == 0 {
			b.Fatal("no progress")
		}
	}
}

// BenchmarkSamplerOverhead quantifies the observability tax: the same
// 8-flow dumbbell run bare and with the full instrumentation stack (a
// registry, per-flow and per-link series, 100 ms sampling cadence). The
// sampled/bare ns/op ratio is the subsystem's overhead; the acceptance
// budget is < 5%.
func BenchmarkSamplerOverhead(b *testing.B) {
	run := func(b *testing.B, sampled bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			sched := sim.NewScheduler()
			d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 8})
			starts := workload.StaggeredStarts(8, 0, 5*time.Second)
			flows := make([]*workload.Flow, 8)
			for j := 0; j < 8; j++ {
				f := tcp.NewFlow(d.Net, j+1, d.Src(j), d.Dst(j),
					routing.Static{Path: d.FwdPath(j)}, routing.Static{Path: d.RevPath(j)})
				proto := workload.TCPPR
				if j%2 == 1 {
					proto = workload.TCPSACK
				}
				flows[j] = workload.NewFlow(f, proto, workload.PRParams{}, starts[j])
			}
			if sampled {
				reg := metrics.New()
				sp := metrics.NewSampler(sched, 0, 0)
				for _, f := range flows {
					metrics.InstrumentFlow(sp, reg, f.Flow, metrics.FlowPrefix(f.ID, f.Protocol))
				}
				metrics.InstrumentLink(sp, reg, d.Bottleneck, metrics.LinkPrefix(d.Bottleneck))
				sp.Start(0)
			}
			sched.RunUntil(benchDur.Warm + benchDur.Measure)
			if flows[0].Flow.Receiver().UniqueSegs == 0 {
				b.Fatal("no progress")
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, false) })
	b.Run("sampled", func(b *testing.B) { run(b, true) })
}

// BenchmarkEpsilonRouting measures the multipath router's per-packet
// choice cost.
func BenchmarkEpsilonRouting(b *testing.B) {
	sched := sim.NewScheduler()
	m := topo.NewMultipath(sched, 3, 10*time.Millisecond)
	r := routing.NewEpsilon(m.FwdPaths, 4, sim.NewRand(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Route() == nil {
			b.Fatal("nil route")
		}
	}
}
