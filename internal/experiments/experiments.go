// Package experiments reproduces the paper's evaluation: one runner per
// figure (Fig 2 fairness, Fig 3 coefficient of variation, Fig 4 α/β
// sensitivity, Fig 6 multipath comparison) plus the ablations DESIGN.md
// calls out. The same runners back cmd/experiments, the repository-root
// benchmarks, and the experiment tests, so every path exercises identical
// code.
package experiments

import (
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// Durations sets the simulated warm-up and measurement windows. The paper
// measures throughput over the final 60 s of each run; Full reproduces
// that, Quick is a scaled-down variant for unit tests and benchmarks.
type Durations struct {
	Warm    time.Duration
	Measure time.Duration
}

// total is the simulated length of one run: warm-up plus measurement.
func (d Durations) total() time.Duration { return d.Warm + d.Measure }

// Full matches the paper's measurement protocol (60 s steady-state window
// after convergence).
var Full = Durations{Warm: 60 * time.Second, Measure: 60 * time.Second}

// Quick is a reduced window for tests and benchmarks: long enough for the
// protocols to reach steady state, short enough to iterate on.
var Quick = Durations{Warm: 25 * time.Second, Measure: 15 * time.Second}

// scenario is a wired topology plus the endpoints flows can be attached
// between.
type scenario struct {
	sched       *sim.Scheduler
	net         *netem.Network
	slots       []flowSlot
	bottlenecks []*netem.Link
}

// flowSlot is one (source, destination) pair with its two routers.
type flowSlot struct {
	src, dst *netem.Node
	fwd, rev routing.Router
}

// dumbbellScenario builds a dumbbell with n host pairs. bottleneckBW of 0
// selects the default 15 Mbps.
func dumbbellScenario(n int, bottleneckBW int64) scenario {
	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: n, BottleneckBW: bottleneckBW})
	s := scenario{
		sched:       sched,
		net:         d.Net,
		bottlenecks: []*netem.Link{d.Bottleneck},
	}
	for i := 0; i < n; i++ {
		s.slots = append(s.slots, flowSlot{
			src: d.Src(i), dst: d.Dst(i),
			fwd: routing.Static{Path: d.FwdPath(i)},
			rev: routing.Static{Path: d.RevPath(i)},
		})
	}
	return s
}

// parkingLotScenario builds the Fig 1 parking lot with n main host pairs
// and the paper's six TCP-SACK cross-traffic connections already running.
// crossFlowBase is the flow-ID base for cross traffic.
func parkingLotScenario(n int, startCross sim.Time) scenario {
	sched := sim.NewScheduler()
	p := topo.NewParkingLot(sched, n, 0)
	s := scenario{
		sched: sched,
		net:   p.Net,
		bottlenecks: []*netem.Link{
			p.Net.FindLink("r1", "r2"),
			p.Net.FindLink("r2", "r3"),
			p.Net.FindLink("r3", "r4"),
		},
	}
	for i := 0; i < n; i++ {
		s.slots = append(s.slots, flowSlot{
			src: p.Src(i), dst: p.Dst(i),
			fwd: routing.Static{Path: p.MainFwd(i)},
			rev: routing.Static{Path: p.MainRev(i)},
		})
	}
	// Long-lived TCP-SACK cross traffic (Fig 1's six connections).
	for i, cp := range topo.CrossPairs() {
		f := tcp.NewFlow(p.Net, 10_000+i, p.Net.Node(cp.Src), p.Net.Node(cp.Dst),
			routing.Static{Path: p.CrossFwd(cp)}, routing.Static{Path: p.CrossRev(cp)})
		workload.NewFlow(f, workload.TCPSACK, workload.PRParams{}, startCross)
	}
	return s
}

// staggeredStarts spreads n flow starts over the first five seconds.
func staggeredStarts(n int) []time.Duration {
	return workload.StaggeredStarts(n, 0, 5*time.Second)
}

// mixedRun attaches one flow per slot, alternating between two protocols
// (protoA on even slots) and starting at starts[slot], registers the
// flows and then the scenario's bottleneck links with the cell's scope,
// runs warm+measure, and returns the flows in slot order.
//
// The figure runners cannot return an error, so they drop the one from
// Scope.Finish; the session keeps it and report.finish surfaces it.
func mixedRun(s scenario, protoA, protoB string, pr workload.PRParams, d Durations, starts []time.Duration, sc *runobs.Scope) []*workload.Flow {
	flows := make([]*workload.Flow, 0, len(s.slots))
	for i, slot := range s.slots {
		proto := protoA
		if i%2 == 1 {
			proto = protoB
		}
		f := tcp.NewFlow(s.net, i+1, slot.src, slot.dst, slot.fwd, slot.rev)
		flows = append(flows, workload.NewFlow(f, proto, pr, starts[i]))
	}
	sc.Flows(flows...)
	sc.Links(s.bottlenecks...)
	for _, f := range flows {
		f.MarkWindow(s.sched, d.Warm, d.Warm+d.Measure)
	}
	s.sched.RunUntil(d.Warm + d.Measure)
	return flows
}

// lossRate returns the aggregate drop fraction across the scenario's
// bottleneck links.
func (s scenario) lossRate() float64 {
	var offered, dropped uint64
	for _, l := range s.bottlenecks {
		st := l.Stats()
		offered += st.Enqueued + st.Dropped + st.REDDropped
		dropped += st.Dropped + st.REDDropped
	}
	if offered == 0 {
		return 0
	}
	return float64(dropped) / float64(offered)
}

// protocolMeans splits per-flow normalized throughputs by protocol and
// returns the mean for each of the two labels.
func protocolMeans(flows []*workload.Flow, norm []float64, protoA, protoB string) (meanA, meanB float64) {
	var sumA, sumB float64
	var nA, nB int
	for i, f := range flows {
		switch f.Protocol {
		case protoA:
			sumA += norm[i]
			nA++
		case protoB:
			sumB += norm[i]
			nB++
		}
	}
	if nA > 0 {
		meanA = sumA / float64(nA)
	}
	if nB > 0 {
		meanB = sumB / float64(nB)
	}
	return meanA, meanB
}

// perProtocol collects normalized throughputs by protocol label.
func perProtocol(flows []*workload.Flow, norm []float64) map[string][]float64 {
	out := make(map[string][]float64)
	for i, f := range flows {
		out[f.Protocol] = append(out[f.Protocol], norm[i])
	}
	return out
}
