package experiments

import (
	"fmt"
	"time"

	"tcppr/internal/core"
	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// mixed is one cell of the fairness family — Figs 2, 3 and 4 and the β
// and hole-policy ablations: TCP-PR on the even slots, TCP-SACK on the
// odd ones, sharing the bottleneck. Each flow's goodput over the
// measurement window is normalised by the mean over all flows.
type mixed struct {
	topology string
	flows    int
	// bwMbps is the bottleneck bandwidth; 0 keeps the topology's 15 Mbps.
	// The parking lot scales its three inner links by bwMbps/15.
	bwMbps float64
	params workload.PRParams
	// jitter adds Fig 3's seed-dependent start offsets, drawn for
	// repetition rep; without it the starts are staggered.
	jitter bool
	rep    int
	// hole, when set, runs TCP-PR straight from core with this hole
	// policy and samples no link, as the hole-policy ablation always has.
	hole *core.HoleMode
}

// versus is the manifests' Variant of every mixed cell but the hole
// ablation's.
const versus = "TCP-PR vs TCP-SACK"

// mixedOut is a finished mixed cell: the bottleneck loss rate and the
// normalised throughputs by protocol, in flow order.
type mixedOut struct {
	mixed
	loss     float64
	pr, sack []float64
}

// buildMixed wires the cell's topology with one host pair per flow.
func buildMixed(c *cell[mixed]) world {
	k := c.Key
	if k.topology == "dumbbell" {
		return dumbbell(c.Sched, topo.DumbbellConfig{Hosts: k.flows, BottleneckBW: topo.Mbps(k.bwMbps)})
	}
	w := parkingLot(c.Sched, k.flows)
	if k.bwMbps != 0 {
		for _, l := range w.bottlenecks {
			l.SetBandwidth(int64(float64(l.Bandwidth) * (k.bwMbps / 15.0)))
		}
	}
	return w
}

// mixedCell attaches the cell's flows, registers them and then the
// bottlenecks with the scope, and marks the measurement window.
func mixedCell(c *cell[mixed]) func() mixedOut {
	k := c.Key
	starts := workload.StaggeredStarts(k.flows, 0, 5*time.Second)
	if k.jitter {
		starts = jitteredStarts(k.flows, int64(k.rep))
	}
	flows := make([]*workload.Flow, k.flows)
	for i := range flows {
		f, proto := c.flow(i), workload.TCPPR
		if i%2 == 1 {
			proto = workload.TCPSACK
		}
		if proto == workload.TCPPR && k.hole != nil {
			mode := *k.hole
			f.Attach(func(env tcp.SenderEnv) tcp.Sender { return core.New(env, core.Config{Hole: mode}) })
			f.Start(starts[i])
			flows[i] = &workload.Flow{Flow: f, Protocol: proto}
		} else {
			flows[i] = workload.NewFlow(f, proto, k.params, starts[i])
		}
	}
	c.Scope.Flows(flows...)
	if k.hole == nil {
		c.Scope.Links(c.bottlenecks...)
	}
	for _, f := range flows {
		f.MarkWindow(c.Sched, c.Warm, c.Horizon)
	}
	return func() mixedOut {
		bytes := make([]float64, len(flows))
		for i, f := range flows {
			bytes[i] = float64(f.WindowBytes())
		}
		norm := stats.Normalized(bytes)
		out := mixedOut{mixed: k, loss: c.lossRate()}
		for i, f := range flows {
			if f.Protocol == workload.TCPPR {
				out.pr = append(out.pr, norm[i])
			} else {
				out.sack = append(out.sack, norm[i])
			}
		}
		return out
	}
}

// jitteredStarts is the staggered starts plus seed-dependent jitter, so
// repeated runs of the same configuration sample different phase
// alignments (the paper repeats each Fig 3 point ten times).
func jitteredStarts(n int, seed int64) []time.Duration {
	starts := workload.StaggeredStarts(n, 0, 5*time.Second)
	rng := sim.NewRand(sim.SplitSeed(991, seed))
	for i := range starts {
		starts[i] += time.Duration(rng.Int63n(int64(500 * time.Millisecond)))
	}
	return starts
}

// mixedSweep declares a mixed-family experiment over one shared axis set:
// topology outermost, then the experiment's own axes.
func mixedSweep(name string, topologies []string, d Durations, obs *runobs.Session,
	label func(mixed) (string, runobs.Fields), axes ...axis[mixed]) sweep[mixed] {
	top := along(topologies, knownTopology, func(k *mixed, t string) { k.topology = t })
	return sweep[mixed]{name: name, axes: append([]axis[mixed]{top}, axes...), d: d, obs: obs, build: buildMixed, label: label}
}

// Fig2Config selects Figure 2's cells: per topology and total flow count
// n, n/2 TCP-PR and n/2 TCP-SACK flows (α = 0.995, β = 3).
type Fig2Config struct {
	Topologies []string
	FlowCounts []int
	Durations  Durations
	Obs        *runobs.Session
}

func fig2Sweep(cfg Fig2Config) sweep[mixed] {
	return mixedSweep("fig2", cfg.Topologies, cfg.Durations, cfg.Obs,
		func(k mixed) (string, runobs.Fields) {
			return fmt.Sprintf("fig2_%s_n%d", k.topology, k.flows), runobs.Fields{Variant: versus,
				Params: map[string]float64{"alpha": k.params.Alpha, "beta": k.params.Beta, "flows": float64(k.flows)}}
		},
		along(cfg.FlowCounts, nil, func(k *mixed, n int) {
			k.flows, k.params = n, workload.PRParams{Alpha: 0.995, Beta: 3}
		}))
}

// RunFig2 reproduces Figure 2: per topology, a summary table (mean and
// range of each protocol's normalised throughput, loss) and the per-flow
// scatter the paper plots, exported as fig2_<topology>.csv.
func RunFig2(cfg Fig2Config) ([]*Table, error) {
	cells, err := runSweep(fig2Sweep(cfg), mixedCell)
	var tables []*Table
	for _, part := range split(cells, len(cfg.FlowCounts)) {
		topology := part[0].topology
		sum := &Table{
			Title: fmt.Sprintf("Figure 2 (%s): mean normalized throughput, %d s window",
				topology, int(cfg.Durations.Measure.Seconds())),
			Header: []string{"flows", "mean_norm_TCP-PR", "mean_norm_TCP-SACK", "min_PR", "max_PR", "min_SACK", "max_SACK", "loss"},
		}
		scatter := &Table{
			Title:  fmt.Sprintf("Figure 2 (%s): per-flow normalized throughput", topology),
			Header: []string{"flows", "protocol", "normalized_throughput"},
			csv:    "fig2_" + topology + ".csv", quiet: true,
		}
		for _, o := range part {
			loPR, hiPR := stats.MinMax(o.pr)
			loSK, hiSK := stats.MinMax(o.sack)
			sum.AddRow(fmt.Sprint(o.flows), f3(stats.Mean(o.pr)), f3(stats.Mean(o.sack)),
				f3(loPR), f3(hiPR), f3(loSK), f3(hiSK), f3(o.loss))
			for _, v := range o.pr {
				scatter.AddRow(fmt.Sprint(o.flows), workload.TCPPR, f3(v))
			}
			for _, v := range o.sack {
				scatter.AddRow(fmt.Sprint(o.flows), workload.TCPSACK, f3(v))
			}
		}
		tables = append(tables, sum, scatter)
	}
	return tables, err
}

// Fig3Config selects Figure 3's cells: per topology and bottleneck
// bandwidth (shrinking it raises the loss rate), Seeds repetitions of
// Flows flows, half TCP-PR and half TCP-SACK, with jittered starts.
type Fig3Config struct {
	Topologies     []string
	BandwidthsMbps []float64
	Flows, Seeds   int
	Durations      Durations
	Obs            *runobs.Session
}

func fig3Sweep(cfg Fig3Config) sweep[mixed] {
	reps := make([]int, cfg.Seeds)
	for i := range reps {
		reps[i] = i
	}
	return mixedSweep("fig3", cfg.Topologies, cfg.Durations, cfg.Obs,
		func(k mixed) (string, runobs.Fields) {
			return fmt.Sprintf("fig3_%s_bw%g_seed%d", k.topology, k.bwMbps, k.rep), runobs.Fields{Variant: versus,
				Seed: int64(k.rep), Params: map[string]float64{"bw_mbps": k.bwMbps, "flows": float64(k.flows)}}
		},
		along(cfg.BandwidthsMbps, nil, func(k *mixed, bw float64) { k.bwMbps, k.flows = bw, cfg.Flows }),
		along(reps, nil, func(k *mixed, r int) { k.rep, k.jitter = r, true }))
}

// RunFig3 reproduces Figure 3: per topology, the seed-averaged CoV of
// each protocol's normalised throughput against the loss rate, and every
// repetition exported as fig3_<topology>.csv.
func RunFig3(cfg Fig3Config) ([]*Table, error) {
	cells, err := runSweep(fig3Sweep(cfg), mixedCell)
	var tables []*Table
	for _, part := range split(cells, len(cfg.BandwidthsMbps)*cfg.Seeds) {
		topology := part[0].topology
		means := &Table{
			Title:  fmt.Sprintf("Figure 3 (%s): seed-averaged CoV", topology),
			Header: []string{"bw_mbps", "mean_loss", "mean_cov_TCP-PR", "mean_cov_TCP-SACK"},
		}
		reps := &Table{
			Title: fmt.Sprintf("Figure 3 (%s): CoV of normalized throughput vs loss rate (%d seeds/point)",
				topology, cfg.Seeds),
			Header: []string{"bw_mbps", "seed", "loss_rate", "cov_TCP-PR", "cov_TCP-SACK"},
			csv:    "fig3_" + topology + ".csv", quiet: true,
		}
		for _, point := range split(part, cfg.Seeds) {
			var loss, covPR, covSK []float64
			for _, o := range point {
				loss = append(loss, o.loss)
				covPR = append(covPR, stats.CoV(o.pr))
				covSK = append(covSK, stats.CoV(o.sack))
				reps.AddRow(f2(o.bwMbps), fmt.Sprint(o.rep), f3(o.loss), f3(stats.CoV(o.pr)), f3(stats.CoV(o.sack)))
			}
			means.AddRow(f2(point[0].bwMbps), f3(stats.Mean(loss)), f3(stats.Mean(covPR)), f3(stats.Mean(covSK)))
		}
		tables = append(tables, means, reps)
	}
	return tables, err
}

// fig4Sweep declares Figure 4: per topology, flows flows (half TCP-PR,
// half TCP-SACK) for every TCP-PR (α, β) pair.
func fig4Sweep(topologies []string, alphas, betas []float64, flows int, d Durations, obs *runobs.Session) sweep[mixed] {
	return mixedSweep("fig4", topologies, d, obs,
		func(k mixed) (string, runobs.Fields) {
			return fmt.Sprintf("fig4_%s_a%g_b%g", k.topology, k.params.Alpha, k.params.Beta), runobs.Fields{Variant: versus,
				Params: map[string]float64{"alpha": k.params.Alpha, "beta": k.params.Beta, "flows": float64(k.flows)}}
		},
		along(alphas, nil, func(k *mixed, a float64) { k.params.Alpha, k.flows = a, flows }),
		along(betas, nil, func(k *mixed, b float64) { k.params.Beta = b }))
}

// fig4 reproduces Figure 4, one table per topology: TCP-SACK's mean
// normalised throughput (the paper's surface; ≈1 means TCP-PR's
// parameters neither advantage nor disadvantage it) per (α, β).
func fig4(topologies []string, alphas, betas []float64, flows int, d Durations, obs *runobs.Session) ([]*Table, error) {
	cells, err := runSweep(fig4Sweep(topologies, alphas, betas, flows, d, obs), mixedCell)
	var tables []*Table
	for _, part := range split(cells, len(alphas)*len(betas)) {
		t := &Table{
			Title: fmt.Sprintf("Figure 4 (%s): TCP-SACK mean normalized throughput vs TCP-PR alpha/beta (%d flows)",
				part[0].topology, part[0].flows),
			Header: []string{"alpha", "beta", "mean_norm_TCP-SACK", "mean_norm_TCP-PR"},
			csv:    "fig4_" + part[0].topology + ".csv",
		}
		for _, o := range part {
			t.AddRow(f3(o.params.Alpha), f2(o.params.Beta), f3(stats.Mean(o.sack)), f3(stats.Mean(o.pr)))
		}
		tables = append(tables, t)
	}
	return tables, err
}

// ablationBeta reproduces the §4 heavy-loss β note: under extreme loss
// TCP-SACK gains up to ~20% over TCP-PR at β = 10, while 1 < β < 5 stays
// even. flows flows share a 1.2 Mbps dumbbell bottleneck.
func ablationBeta(betas []float64, flows int, d Durations, obs *runobs.Session) ([]*Table, error) {
	cells, err := runSweep(mixedSweep("ablation-beta", []string{"dumbbell"}, d, obs,
		func(k mixed) (string, runobs.Fields) {
			return fmt.Sprintf("ablation-beta_b%g", k.params.Beta), runobs.Fields{Variant: versus,
				Params: map[string]float64{"beta": k.params.Beta, "flows": float64(k.flows)}}
		},
		along(betas, nil, func(k *mixed, b float64) { k.params.Beta, k.flows, k.bwMbps = b, flows, 1.2 })), mixedCell)
	t := &Table{
		Title:  fmt.Sprintf("Ablation (beta under heavy loss, %g Mbps bottleneck, %d flows)", 1.2, flows),
		Header: []string{"beta", "loss_rate", "mean_norm_TCP-SACK", "mean_norm_TCP-PR"},
		csv:    "ablation_beta.csv",
	}
	for _, o := range cells {
		t.AddRow(f2(o.params.Beta), f3(o.loss), f3(stats.Mean(o.sack)), f3(stats.Mean(o.pr)))
	}
	return []*Table{t}, err
}

// ablationHoleMode contrasts TCP-PR's three hole policies (core.HoleMode)
// where they differ most: 8 TCP-PR + 8 TCP-SACK flows on the dumbbell. It
// quantifies the DESIGN.md resolution-6 measurement.
func ablationHoleMode(d Durations, obs *runobs.Session) ([]*Table, error) {
	modes := []core.HoleMode{core.HoleThrottled, core.HoleFreeze, core.HoleFullClock}
	cells, err := runSweep(mixedSweep("ablation-holemode", []string{"dumbbell"}, d, obs,
		func(k mixed) (string, runobs.Fields) {
			return "ablation-holemode_" + k.hole.String(), runobs.Fields{Variant: k.hole.String()}
		},
		along(modes, nil, func(k *mixed, m core.HoleMode) { k.hole, k.flows = &m, 16 })), mixedCell)
	t := &Table{
		Title:  "Ablation: TCP-PR hole policy (8 PR + 8 SACK flows, dumbbell)",
		Header: []string{"policy", "mean_norm_TCP-PR", "mean_norm_TCP-SACK"},
	}
	for _, o := range cells {
		t.AddRow(o.hole.String(), f3(stats.Mean(o.pr)), f3(stats.Mean(o.sack)))
	}
	return []*Table{t}, err
}
