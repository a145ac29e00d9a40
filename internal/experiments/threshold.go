package experiments

import (
	"fmt"
	"time"

	"tcppr/internal/analysis"
	"tcppr/internal/routing"
	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/trace"
	"tcppr/internal/workload"
)

// RunThresholdSweep reproduces the question the paper defers to its
// technical report [5]: sweep β over a timing trace recorded from a real
// TCP-PR flow under full multipath reordering (ε = 0, Fig 5 topology) and
// report the false-drop rate and detection headroom for each value.
func RunThresholdSweep(d Durations, obs *runobs.Session) *Table {
	sched := sim.NewScheduler()
	m := topo.NewMultipath(sched, 3, 10*time.Millisecond)
	sc := obs.Open("ext-threshold", d.total(), m.Net, sched)
	fwd := routing.NewEpsilon(m.FwdPaths, 0, sim.NewRand(61))
	rev := routing.NewEpsilon(m.RevPaths, 0, sim.NewRand(62))
	f := tcp.NewFlow(m.Net, 1, m.Src, m.Dst, fwd, rev)
	rec := trace.NewRecorder()
	rec.Attach(f)
	sc.Flows(workload.NewFlow(f, workload.TCPPR, workload.PRParams{}, 0))
	sched.RunUntil(d.Warm + d.Measure)
	sc.Finish(runobs.Fields{Experiment: "ext-threshold", Topology: "multipath", Variant: workload.TCPPR})

	samples := analysis.ExtractSamples(rec)
	betas := []float64{1.05, 1.25, 1.5, 2, 3, 5, 10}
	results := analysis.SweepBeta(samples, 0.995, betas, 100)

	t := &Table{
		Title: fmt.Sprintf("Extension: loss-detection threshold sweep over a real eps=0 trace (%d samples, alpha=0.995)",
			len(samples)),
		Header: []string{"beta", "false_drop_rate", "mean_headroom", "min_headroom"},
	}
	for _, r := range results {
		t.AddRow(f2(r.Beta), fmt.Sprintf("%.5f", r.FalseDropRate()),
			r.MeanHeadroom.Round(time.Millisecond).String(),
			r.MinHeadroom.Round(time.Millisecond).String())
	}
	return t
}
