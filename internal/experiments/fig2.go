package experiments

import (
	"fmt"

	"tcppr/internal/runobs"
	"tcppr/internal/stats"
	"tcppr/internal/workload"
)

// Fig2Config parameterizes the Figure 2 fairness experiment: equal
// numbers of TCP-PR and TCP-SACK flows share a topology; the metric is
// each flow's normalized throughput over the final measurement window.
type Fig2Config struct {
	// Topology is "dumbbell" or "parkinglot".
	Topology string
	// FlowCounts lists the total flow counts to sweep (each half PR,
	// half SACK). Zero selects the paper's sweep.
	FlowCounts []int
	// Alpha and Beta are the TCP-PR parameters (paper: 0.995 / 3.0).
	Alpha, Beta float64
	// Durations control warm-up and measurement windows.
	Durations Durations
	// Obs, when non-nil, is the run's telemetry session; every cell runs
	// inside one of its scopes.
	Obs *runobs.Session
}

func (c *Fig2Config) fill() {
	if c.Topology == "" {
		c.Topology = "dumbbell"
	}
	if len(c.FlowCounts) == 0 {
		c.FlowCounts = []int{4, 8, 16, 32, 48, 64}
	}
	if c.Alpha == 0 {
		c.Alpha = 0.995
	}
	if c.Beta == 0 {
		c.Beta = 3.0
	}
	if c.Durations == (Durations{}) {
		c.Durations = Full
	}
}

// Fig2Point is the result for one flow count: each flow's normalized
// throughput plus the per-protocol means.
type Fig2Point struct {
	Flows          int
	PerFlow        map[string][]float64
	MeanPR         float64
	MeanSACK       float64
	BottleneckLoss float64
}

// Fig2Result aggregates the sweep.
type Fig2Result struct {
	Config Fig2Config
	Points []Fig2Point
}

// RunFig2 reproduces Figure 2 for one topology.
func RunFig2(cfg Fig2Config) Fig2Result {
	cfg.fill()
	res := Fig2Result{Config: cfg}
	for _, n := range cfg.FlowCounts {
		s := buildScenario(cfg.Topology, n)
		sc := cfg.Obs.Open(fmt.Sprintf("fig2_%s_n%d", cfg.Topology, n), cfg.Durations.total(), s.net, s.sched)
		flows := mixedRun(s, workload.TCPPR, workload.TCPSACK,
			workload.PRParams{Alpha: cfg.Alpha, Beta: cfg.Beta}, cfg.Durations, staggeredStarts(len(s.slots)), sc)
		sc.Finish(runobs.Fields{Experiment: "fig2", Topology: cfg.Topology, Variant: "TCP-PR vs TCP-SACK",
			Params: map[string]float64{"alpha": cfg.Alpha, "beta": cfg.Beta, "flows": float64(n)}})
		bytes := make([]float64, len(flows))
		for i, f := range flows {
			bytes[i] = float64(f.WindowBytes())
		}
		norm := stats.Normalized(bytes)
		meanPR, meanSACK := protocolMeans(flows, norm, workload.TCPPR, workload.TCPSACK)
		res.Points = append(res.Points, Fig2Point{
			Flows:          n,
			PerFlow:        perProtocol(flows, norm),
			MeanPR:         meanPR,
			MeanSACK:       meanSACK,
			BottleneckLoss: s.lossRate(),
		})
	}
	return res
}

func buildScenario(topology string, n int) scenario {
	switch topology {
	case "dumbbell":
		return dumbbellScenario(n, 0)
	case "parkinglot":
		return parkingLotScenario(n, 0)
	default:
		panic(fmt.Sprintf("experiments: unknown topology %q", topology))
	}
}

// Table renders the summary (one row per flow count).
func (r Fig2Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Figure 2 (%s): mean normalized throughput, %d s window",
			r.Config.Topology, int(r.Config.Durations.Measure.Seconds())),
		Header: []string{"flows", "mean_norm_TCP-PR", "mean_norm_TCP-SACK", "min_PR", "max_PR", "min_SACK", "max_SACK", "loss"},
	}
	for _, p := range r.Points {
		loPR, hiPR := stats.MinMax(p.PerFlow[workload.TCPPR])
		loSK, hiSK := stats.MinMax(p.PerFlow[workload.TCPSACK])
		t.AddRow(fmt.Sprint(p.Flows), f3(p.MeanPR), f3(p.MeanSACK),
			f3(loPR), f3(hiPR), f3(loSK), f3(hiSK), f3(p.BottleneckLoss))
	}
	return t
}

// PerFlowTable renders every flow's normalized throughput (the scatter
// the paper plots).
func (r Fig2Result) PerFlowTable() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 2 (%s): per-flow normalized throughput", r.Config.Topology),
		Header: []string{"flows", "protocol", "normalized_throughput"},
	}
	for _, p := range r.Points {
		for _, proto := range []string{workload.TCPPR, workload.TCPSACK} {
			for _, v := range p.PerFlow[proto] {
				t.AddRow(fmt.Sprint(p.Flows), proto, f3(v))
			}
		}
	}
	return t
}
