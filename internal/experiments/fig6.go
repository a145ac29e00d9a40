package experiments

import (
	"fmt"
	"time"

	"tcppr/internal/routing"
	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// Fig6Config parameterizes the Figure 6 multipath comparison: one flow at
// a time (no background traffic) over the Fig 5 topology, for each
// protocol and each ε of the multipath routing family, at two per-link
// propagation delays.
type Fig6Config struct {
	// Protocols lists the senders to compare; zero selects the figure's
	// set (TCP-PR, TD-FR, DSACK-NM, Inc by 1, Inc by N, EWMA).
	Protocols []string
	// Epsilons lists the routing parameters; zero selects the paper's
	// {0, 1, 4, 10, 500}.
	Epsilons []float64
	// LinkDelays lists the per-link propagation delays; zero selects the
	// paper's {10 ms, 60 ms}.
	LinkDelays []time.Duration
	// Paths is the number of disjoint paths in the topology; default 3.
	Paths int
	// Durations control warm-up and measurement windows.
	Durations Durations
	// Seed feeds the per-packet path choices.
	Seed int64
	// Obs, when non-nil, is the run's telemetry session; every cell runs
	// inside one of its scopes.
	Obs *runobs.Session

	// experiment names the cells' scopes and manifests; empty selects
	// "fig6" (the ext-door comparison reuses this runner under its own).
	experiment string
}

func (c *Fig6Config) fill() {
	if len(c.Protocols) == 0 {
		c.Protocols = workload.Fig6Protocols()
	}
	if len(c.Epsilons) == 0 {
		c.Epsilons = []float64{0, 1, 4, 10, 500}
	}
	if len(c.LinkDelays) == 0 {
		c.LinkDelays = []time.Duration{10 * time.Millisecond, 60 * time.Millisecond}
	}
	if c.Paths == 0 {
		c.Paths = 3
	}
	if c.Durations == (Durations{}) {
		c.Durations = Full
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.experiment == "" {
		c.experiment = "fig6"
	}
}

// Fig6Point is one (protocol, ε, delay) measurement.
type Fig6Point struct {
	Protocol  string
	Epsilon   float64
	LinkDelay time.Duration
	Mbps      float64
}

// Fig6Result aggregates the comparison.
type Fig6Result struct {
	Config Fig6Config
	Points []Fig6Point
}

// RunFig6 reproduces Figure 6. Cells are independent simulations and run
// in parallel across the available CPUs.
func RunFig6(cfg Fig6Config) Fig6Result {
	cfg.fill()
	type cell struct {
		proto string
		eps   float64
		delay time.Duration
	}
	var cells []cell
	for _, delay := range cfg.LinkDelays {
		for _, eps := range cfg.Epsilons {
			for _, proto := range cfg.Protocols {
				cells = append(cells, cell{proto, eps, delay})
			}
		}
	}
	points := parallelMap(len(cells), func(i int) Fig6Point {
		c := cells[i]
		return Fig6Point{
			Protocol:  c.proto,
			Epsilon:   c.eps,
			LinkDelay: c.delay,
			Mbps:      runFig6Cell(cfg, c.proto, c.eps, c.delay),
		}
	})
	return Fig6Result{Config: cfg, Points: points}
}

// runFig6Cell runs one single-flow simulation and returns goodput in Mbps.
func runFig6Cell(cfg Fig6Config, proto string, eps float64, delay time.Duration) float64 {
	sched := sim.NewScheduler()
	m := topo.NewMultipath(sched, cfg.Paths, delay)
	fwd := routing.NewEpsilon(m.FwdPaths, eps, sim.NewRand(sim.SplitSeed(cfg.Seed, 1)))
	rev := routing.NewEpsilon(m.RevPaths, eps, sim.NewRand(sim.SplitSeed(cfg.Seed, 2)))
	f := tcp.NewFlow(m.Net, 1, m.Src, m.Dst, fwd, rev)
	wf := workload.NewFlow(f, proto, workload.PRParams{}, 0)
	// Convergence to steady state through congestion avoidance scales
	// with the bandwidth-delay product, so the warm-up scales with the
	// link delay (60 ms links need ~6x the 10 ms warm-up).
	warm := cfg.Durations.Warm * sim.Time(delay/(10*time.Millisecond))
	if warm < cfg.Durations.Warm {
		warm = cfg.Durations.Warm
	}
	sc := cfg.Obs.Open(fmt.Sprintf("%s_%s_eps%g_d%dms", cfg.experiment, proto, eps, delay.Milliseconds()),
		warm+cfg.Durations.Measure, m.Net, sched)
	sc.Flows(wf)
	sc.Links(m.Net.Links()...)
	wf.MarkWindow(sched, warm, warm+cfg.Durations.Measure)
	sched.RunUntil(warm + cfg.Durations.Measure)
	sc.Finish(runobs.Fields{Experiment: cfg.experiment, Topology: "multipath", Variant: proto, Seed: cfg.Seed,
		Params: map[string]float64{"eps": eps, "delay_ms": float64(delay.Milliseconds()), "paths": float64(cfg.Paths)}})
	return stats.Mbps(stats.Throughput(wf.WindowBytes(), cfg.Durations.Measure))
}

// Table renders one sub-table per link delay, protocols as rows and ε as
// columns — the layout of the paper's bar groups.
func (r Fig6Result) Table() []*Table {
	var tables []*Table
	for _, delay := range r.Config.LinkDelays {
		t := &Table{
			Title:  fmt.Sprintf("Figure 6: throughput (Mbps), %v per-link delay", delay),
			Header: append([]string{"protocol"}, epsHeaders(r.Config.Epsilons)...),
		}
		for _, proto := range r.Config.Protocols {
			row := []string{proto}
			for _, eps := range r.Config.Epsilons {
				row = append(row, f2(r.lookup(proto, eps, delay)))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables
}

func epsHeaders(eps []float64) []string {
	out := make([]string, len(eps))
	for i, e := range eps {
		out[i] = fmt.Sprintf("eps=%g", e)
	}
	return out
}

func (r Fig6Result) lookup(proto string, eps float64, delay time.Duration) float64 {
	for _, p := range r.Points {
		if p.Protocol == proto && p.Epsilon == eps && p.LinkDelay == delay {
			return p.Mbps
		}
	}
	return 0
}
