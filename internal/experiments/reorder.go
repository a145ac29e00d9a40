package experiments

import (
	"fmt"
	"time"

	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/trace"
	"tcppr/internal/workload"
)

// reorderProfile measures how much reordering each ε of the multipath
// family produces on the Fig 5 topology (10 ms links) — the
// supplementary "how much reordering is ε=k, actually?" table. A TCP-PR
// flow observes it: it keeps the pipe full regardless of the reordering,
// so the measurement reflects the network, not the sender's collapse.
func reorderProfile(d Durations, obs *runobs.Session) ([]*Table, error) {
	const delay = 10 * time.Millisecond
	type point struct {
		rate     float64 // fraction of arrivals out of order
		med, max int64   // displacement in packets
		mbps     float64
	}
	eps := []float64{0, 1, 4, 10, 500}
	points, err := runSweep(sweep[float64]{
		name: "ext-reorder", d: d, obs: obs,
		axes: []axis[float64]{along(eps, nil, func(k *float64, e float64) { *k = e })},
		build: func(c *cell[float64]) world {
			i := int64(c.Idx - 1)
			return multipath(c.Sched, delay, c.Key, sim.SplitSeed(71, i), sim.SplitSeed(72, i))
		},
		label: func(e float64) (string, runobs.Fields) {
			return fmt.Sprintf("ext-reorder_eps%g", e), runobs.Fields{Variant: workload.TCPPR,
				Params: map[string]float64{"eps": e, "delay_ms": float64(delay.Milliseconds())}}
		},
	}, func(c *cell[float64]) func() point {
		f := c.flow(0)
		rec := trace.NewRecorder()
		rec.Attach(f)
		wf := workload.NewFlow(f, workload.TCPPR, workload.PRParams{}, 0)
		c.Scope.Flows(wf)
		wf.MarkWindow(c.Sched, c.Warm, c.Horizon)
		return func() point {
			_, med, max := rec.ReorderExtents()
			return point{rec.ReorderRate(), med, max, stats.Mbps(stats.Throughput(wf.WindowBytes(), d.Measure))}
		}
	})
	t := &Table{
		Title:  fmt.Sprintf("Extension: reordering produced by the eps-multipath family (%v links, TCP-PR observer)", delay),
		Header: []string{"eps", "reorder_rate", "median_extent_pkts", "max_extent_pkts", "observer_mbps"},
		csv:    "ext_reorder.csv",
	}
	for i, p := range points {
		t.AddRow(fmt.Sprintf("%g", eps[i]), f3(p.rate), fmt.Sprint(p.med), fmt.Sprint(p.max), f2(p.mbps))
	}
	return []*Table{t}, err
}
