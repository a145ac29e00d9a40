package experiments

import (
	"fmt"

	"tcppr/internal/runobs"
	"tcppr/internal/stats"
	"tcppr/internal/workload"
)

// Fig4Config parameterizes the Figure 4 sensitivity experiment: 32 TCP-PR
// and 32 TCP-SACK flows share a topology while TCP-PR's α and β are swept;
// the reported metric is TCP-SACK's mean normalized throughput (≈1 means
// TCP-PR is not advantaged or disadvantaged by its parameters).
type Fig4Config struct {
	// Topology is "dumbbell" or "parkinglot".
	Topology string
	// Alphas and Betas define the sweep grid. Zero selects the paper's
	// ranges (α ∈ (0,1), β ∈ [1,10]).
	Alphas, Betas []float64
	// Flows is the total flow count; default 64 (32+32, paper).
	Flows int
	// Durations control warm-up and measurement windows.
	Durations Durations
	// Obs, when non-nil, is the run's telemetry session; every cell runs
	// inside one of its scopes.
	Obs *runobs.Session
}

func (c *Fig4Config) fill() {
	if c.Topology == "" {
		c.Topology = "dumbbell"
	}
	if len(c.Alphas) == 0 {
		c.Alphas = []float64{0.3, 0.6, 0.9, 0.995}
	}
	if len(c.Betas) == 0 {
		c.Betas = []float64{1, 2, 3, 5, 10}
	}
	if c.Flows == 0 {
		c.Flows = 64
	}
	if c.Durations == (Durations{}) {
		c.Durations = Full
	}
}

// Fig4Point is one grid cell.
type Fig4Point struct {
	Alpha, Beta float64
	// MeanSACK is TCP-SACK's mean normalized throughput (the paper's
	// plotted surface); MeanPR is the complementary TCP-PR value.
	MeanSACK, MeanPR float64
}

// Fig4Result aggregates the sweep.
type Fig4Result struct {
	Config Fig4Config
	Points []Fig4Point
}

// RunFig4 reproduces Figure 4 for one topology. Grid cells run in
// parallel across the available CPUs.
func RunFig4(cfg Fig4Config) Fig4Result {
	cfg.fill()
	type cell struct{ alpha, beta float64 }
	var cells []cell
	for _, alpha := range cfg.Alphas {
		for _, beta := range cfg.Betas {
			cells = append(cells, cell{alpha, beta})
		}
	}
	points := parallelMap(len(cells), func(i int) Fig4Point {
		c := cells[i]
		s := buildScenario(cfg.Topology, cfg.Flows)
		sc := cfg.Obs.Open(fmt.Sprintf("fig4_%s_a%g_b%g", cfg.Topology, c.alpha, c.beta),
			cfg.Durations.total(), s.net, s.sched)
		flows := mixedRun(s, workload.TCPPR, workload.TCPSACK,
			workload.PRParams{Alpha: c.alpha, Beta: c.beta}, cfg.Durations, staggeredStarts(len(s.slots)), sc)
		sc.Finish(runobs.Fields{Experiment: "fig4", Topology: cfg.Topology, Variant: "TCP-PR vs TCP-SACK",
			Params: map[string]float64{"alpha": c.alpha, "beta": c.beta, "flows": float64(cfg.Flows)}})
		bytes := make([]float64, len(flows))
		for j, f := range flows {
			bytes[j] = float64(f.WindowBytes())
		}
		norm := stats.Normalized(bytes)
		meanPR, meanSACK := protocolMeans(flows, norm, workload.TCPPR, workload.TCPSACK)
		return Fig4Point{Alpha: c.alpha, Beta: c.beta, MeanSACK: meanSACK, MeanPR: meanPR}
	})
	return Fig4Result{Config: cfg, Points: points}
}

// Table renders the grid, one row per (α, β).
func (r Fig4Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Figure 4 (%s): TCP-SACK mean normalized throughput vs TCP-PR alpha/beta (%d flows)",
			r.Config.Topology, r.Config.Flows),
		Header: []string{"alpha", "beta", "mean_norm_TCP-SACK", "mean_norm_TCP-PR"},
	}
	for _, p := range r.Points {
		t.AddRow(f3(p.Alpha), f2(p.Beta), f3(p.MeanSACK), f3(p.MeanPR))
	}
	return t
}
