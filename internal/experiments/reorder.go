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
	"tcppr/internal/trace"
	"tcppr/internal/workload"
)

// ReorderPoint quantifies the reordering one ε setting produces, as
// observed by a TCP-PR flow (chosen because it keeps the pipe full
// regardless of the reordering, so the measurement reflects the network,
// not the sender's collapse).
type ReorderPoint struct {
	Epsilon     float64
	LinkDelay   time.Duration
	ReorderRate float64 // fraction of arrivals out of order
	MedianExt   int64   // median displacement in packets
	MaxExt      int64
	Mbps        float64
}

// RunReorderProfile measures the reordering profile of the ε-multipath
// family on the Fig 5 topology — the supplementary "how much reordering
// is ε=k, actually?" table the paper's reader inevitably wants.
func RunReorderProfile(d Durations, linkDelay time.Duration, obs *runobs.Session) []ReorderPoint {
	if linkDelay == 0 {
		linkDelay = 10 * time.Millisecond
	}
	eps := []float64{0, 1, 4, 10, 500}
	return parallelMap(len(eps), func(i int) ReorderPoint {
		e := eps[i]
		sched := sim.NewScheduler()
		m := topo.NewMultipath(sched, 3, linkDelay)
		sc := obs.Open(fmt.Sprintf("ext-reorder_eps%g", e), d.total(), m.Net, sched)
		fwd := routing.NewEpsilon(m.FwdPaths, e, sim.NewRand(sim.SplitSeed(71, int64(i))))
		rev := routing.NewEpsilon(m.RevPaths, e, sim.NewRand(sim.SplitSeed(72, int64(i))))
		f := tcp.NewFlow(m.Net, 1, m.Src, m.Dst, fwd, rev)
		rec := trace.NewRecorder()
		rec.Attach(f)
		wf := workload.NewFlow(f, workload.TCPPR, workload.PRParams{}, 0)
		sc.Flows(wf)
		wf.MarkWindow(sched, d.Warm, d.Warm+d.Measure)
		sched.RunUntil(d.Warm + d.Measure)
		sc.Finish(runobs.Fields{Experiment: "ext-reorder", Topology: "multipath", Variant: workload.TCPPR,
			Params: map[string]float64{"eps": e, "delay_ms": float64(linkDelay.Milliseconds())}})
		_, med, max := rec.ReorderExtents()
		return ReorderPoint{
			Epsilon:     e,
			LinkDelay:   linkDelay,
			ReorderRate: rec.ReorderRate(),
			MedianExt:   med,
			MaxExt:      max,
			Mbps:        stats.Mbps(stats.Throughput(wf.WindowBytes(), d.Measure)),
		}
	})
}

// ReorderTable renders the profile.
func ReorderTable(points []ReorderPoint) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Extension: reordering produced by the eps-multipath family (%v links, TCP-PR observer)", points[0].LinkDelay),
		Header: []string{"eps", "reorder_rate", "median_extent_pkts", "max_extent_pkts", "observer_mbps"},
	}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%g", p.Epsilon), f3(p.ReorderRate),
			fmt.Sprint(p.MedianExt), fmt.Sprint(p.MaxExt), f2(p.Mbps))
	}
	return t
}
