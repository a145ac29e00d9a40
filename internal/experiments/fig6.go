package experiments

import (
	"fmt"
	"time"

	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/workload"
)

// Fig6Config selects Figure 6's cells: one flow at a time (no background
// traffic) over the Fig 5 three-path topology, for each link delay, ε of
// the multipath routing family and protocol.
type Fig6Config struct {
	Protocols  []string
	Epsilons   []float64
	LinkDelays []time.Duration
	Durations  Durations
	// Seed feeds the per-packet path choices; zero selects 42.
	Seed int64
	Obs  *runobs.Session
}

// Fig6Point is one finished Fig 6 cell: its goodput over the measurement
// window and its scheduler's queue counters.
type Fig6Point struct {
	Protocol  string
	Epsilon   float64
	LinkDelay time.Duration
	Mbps      float64
	Heap      sim.Stats
}

// RunFig6 reproduces Figure 6's cells, link delay outermost, then ε, then
// protocol.
func RunFig6(cfg Fig6Config) ([]Fig6Point, error) { return runFig6("fig6", cfg) }

// runFig6 runs the Fig 6 sweep under an experiment name: ext-door reuses
// it with its own.
func runFig6(name string, cfg Fig6Config) ([]Fig6Point, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	return runSweep(sweep[Fig6Point]{
		name: name, d: cfg.Durations, obs: cfg.Obs,
		axes: []axis[Fig6Point]{
			along(cfg.LinkDelays, nil, func(k *Fig6Point, d time.Duration) { k.LinkDelay = d }),
			along(cfg.Epsilons, nil, func(k *Fig6Point, e float64) { k.Epsilon = e }),
			along(cfg.Protocols, knownProtocol(name), func(k *Fig6Point, p string) { k.Protocol = p }),
		},
		build: func(c *cell[Fig6Point]) world {
			k := c.Key
			w := multipath(c.Sched, k.LinkDelay, k.Epsilon, sim.SplitSeed(cfg.Seed, 1), sim.SplitSeed(cfg.Seed, 2))
			w.started = workload.NewFlow(w.flow(0), k.Protocol, workload.PRParams{}, 0)
			// Convergence to steady state through congestion avoidance
			// scales with the bandwidth-delay product, so the warm-up
			// scales with the link delay (60 ms links need ~6x the 10 ms
			// warm-up).
			if warm := c.Warm * sim.Time(k.LinkDelay/(10*time.Millisecond)); warm > c.Warm {
				c.Warm = warm
			}
			return w
		},
		label: func(k Fig6Point) (string, runobs.Fields) {
			return fmt.Sprintf("%s_%s_eps%g_d%dms", name, k.Protocol, k.Epsilon, k.LinkDelay.Milliseconds()),
				runobs.Fields{Variant: k.Protocol, Seed: cfg.Seed, Params: map[string]float64{
					"eps": k.Epsilon, "delay_ms": float64(k.LinkDelay.Milliseconds()), "paths": 3}}
		},
	}, func(c *cell[Fig6Point]) func() Fig6Point {
		wf := c.started
		c.Scope.Flows(wf)
		c.Scope.Links(c.net.Links()...)
		wf.MarkWindow(c.Sched, c.Warm, c.Horizon)
		return func() Fig6Point {
			p := c.Key
			p.Mbps = stats.Mbps(stats.Throughput(wf.WindowBytes(), c.Horizon-c.Warm))
			p.Heap = c.Sched.Stats()
			return p
		}
	})
}

// fig6Tables renders one table per link delay, protocols as rows and ε as
// columns — the layout of the paper's bar groups — the i-th exported as
// fig6_delay<i>.csv.
func fig6Tables(cfg Fig6Config, points []Fig6Point) []*Table {
	var tables []*Table
	for i, part := range split(points, len(cfg.Epsilons)*len(cfg.Protocols)) {
		t := &Table{
			Title:  fmt.Sprintf("Figure 6: throughput (Mbps), %v per-link delay", part[0].LinkDelay),
			Header: []string{"protocol"},
			csv:    fmt.Sprintf("fig6_delay%d.csv", i),
		}
		for _, e := range cfg.Epsilons {
			t.Header = append(t.Header, fmt.Sprintf("eps=%g", e))
		}
		for j, proto := range cfg.Protocols {
			row := []string{proto}
			for e := range cfg.Epsilons {
				row = append(row, f2(part[e*len(cfg.Protocols)+j].Mbps))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables
}
