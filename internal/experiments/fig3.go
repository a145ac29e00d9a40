package experiments

import (
	"fmt"
	"time"

	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// Fig3Config parameterizes the Figure 3 experiment: the coefficient of
// variation of per-protocol normalized throughput as a function of the
// packet-loss rate. The paper induces different loss rates by shrinking
// the bottleneck bandwidth; each point is repeated over several seeds
// (start-time jitter) and both the per-seed CoVs and their mean are
// reported.
type Fig3Config struct {
	// Topology is "dumbbell" or "parkinglot".
	Topology string
	// BandwidthsMbps lists the bottleneck bandwidths to sweep (dumbbell
	// only; the parking lot scales its three inner links by the same
	// factor relative to 15 Mbps). Zero selects the default sweep.
	BandwidthsMbps []float64
	// Flows is the total flow count (half PR, half SACK); default 16.
	Flows int
	// Seeds is the number of repetitions per point; default 10 (paper).
	Seeds int
	// Durations control warm-up and measurement windows.
	Durations Durations
	// Obs, when non-nil, is the run's telemetry session; every cell runs
	// inside one of its scopes.
	Obs *runobs.Session
}

func (c *Fig3Config) fill() {
	if c.Topology == "" {
		c.Topology = "dumbbell"
	}
	if len(c.BandwidthsMbps) == 0 {
		c.BandwidthsMbps = []float64{10, 7, 5, 3.5, 2.5, 1.8}
	}
	if c.Flows == 0 {
		c.Flows = 16
	}
	if c.Seeds == 0 {
		c.Seeds = 10
	}
	if c.Durations == (Durations{}) {
		c.Durations = Full
	}
}

// Fig3Point is one (bandwidth, seed) measurement.
type Fig3Point struct {
	BandwidthMbps float64
	Seed          int
	LossRate      float64
	CoVPR         float64
	CoVSACK       float64
}

// Fig3Result aggregates the sweep.
type Fig3Result struct {
	Config Fig3Config
	Points []Fig3Point
}

// RunFig3 reproduces Figure 3 for one topology. The (bandwidth, seed)
// points run in parallel across the available CPUs.
func RunFig3(cfg Fig3Config) Fig3Result {
	cfg.fill()
	type cell struct {
		bw   float64
		seed int
	}
	var cells []cell
	for _, bw := range cfg.BandwidthsMbps {
		for seed := 0; seed < cfg.Seeds; seed++ {
			cells = append(cells, cell{bw, seed})
		}
	}
	points := parallelMap(len(cells), func(i int) Fig3Point {
		c := cells[i]
		s := fig3Scenario(cfg.Topology, cfg.Flows, c.bw)
		sc := cfg.Obs.Open(fmt.Sprintf("fig3_%s_bw%g_seed%d", cfg.Topology, c.bw, c.seed),
			cfg.Durations.total(), s.net, s.sched)
		flows := mixedRun(s, workload.TCPPR, workload.TCPSACK,
			workload.PRParams{}, cfg.Durations, jitteredStarts(len(s.slots), int64(c.seed)), sc)
		sc.Finish(runobs.Fields{Experiment: "fig3", Topology: cfg.Topology, Variant: "TCP-PR vs TCP-SACK",
			Seed: int64(c.seed), Params: map[string]float64{"bw_mbps": c.bw, "flows": float64(cfg.Flows)}})
		bytes := make([]float64, len(flows))
		for j, f := range flows {
			bytes[j] = float64(f.WindowBytes())
		}
		norm := stats.Normalized(bytes)
		by := perProtocol(flows, norm)
		return Fig3Point{
			BandwidthMbps: c.bw,
			Seed:          c.seed,
			LossRate:      s.lossRate(),
			CoVPR:         stats.CoV(by[workload.TCPPR]),
			CoVSACK:       stats.CoV(by[workload.TCPSACK]),
		}
	})
	return Fig3Result{Config: cfg, Points: points}
}

// fig3Scenario builds the topology with a scaled bottleneck.
func fig3Scenario(topology string, n int, bwMbps float64) scenario {
	switch topology {
	case "dumbbell":
		return dumbbellScenario(n, topo.Mbps(bwMbps))
	case "parkinglot":
		// Scale all three inner links relative to the 15 Mbps default.
		s := parkingLotScenario(n, 0)
		factor := bwMbps / 15.0
		for _, l := range s.bottlenecks {
			l.SetBandwidth(int64(float64(l.Bandwidth) * factor))
		}
		return s
	default:
		panic(fmt.Sprintf("experiments: unknown topology %q", topology))
	}
}

// jitteredStarts is staggeredStarts plus seed-dependent jitter, so
// repeated runs of the same configuration sample different phase
// alignments (the paper repeats each Fig 3 point ten times).
func jitteredStarts(n int, seed int64) []time.Duration {
	starts := staggeredStarts(n)
	rng := sim.NewRand(sim.SplitSeed(991, seed))
	for i := range starts {
		starts[i] += time.Duration(rng.Int63n(int64(500 * time.Millisecond)))
	}
	return starts
}

// Table renders per-point rows plus per-bandwidth means.
func (r Fig3Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Figure 3 (%s): CoV of normalized throughput vs loss rate (%d seeds/point)",
			r.Config.Topology, r.Config.Seeds),
		Header: []string{"bw_mbps", "seed", "loss_rate", "cov_TCP-PR", "cov_TCP-SACK"},
	}
	for _, p := range r.Points {
		t.AddRow(f2(p.BandwidthMbps), fmt.Sprint(p.Seed), f3(p.LossRate), f3(p.CoVPR), f3(p.CoVSACK))
	}
	return t
}

// MeanTable renders one row per bandwidth with seed-averaged values (the
// paper plots both the per-seed scatter and the mean curve).
func (r Fig3Result) MeanTable() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure 3 (%s): seed-averaged CoV", r.Config.Topology),
		Header: []string{"bw_mbps", "mean_loss", "mean_cov_TCP-PR", "mean_cov_TCP-SACK"},
	}
	for _, bw := range r.Config.BandwidthsMbps {
		var loss, covPR, covSK []float64
		for _, p := range r.Points {
			if p.BandwidthMbps == bw {
				loss = append(loss, p.LossRate)
				covPR = append(covPR, p.CoVPR)
				covSK = append(covSK, p.CoVSACK)
			}
		}
		t.AddRow(f2(bw), f3(stats.Mean(loss)), f3(stats.Mean(covPR)), f3(stats.Mean(covSK)))
	}
	return t
}
