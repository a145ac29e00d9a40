package experiments

import (
	"fmt"

	"tcppr/internal/core"
	"tcppr/internal/routing"
	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// AblationBetaConfig parameterizes the §4 heavy-loss β study: the paper
// notes that under extreme loss (>15% drop probability) TCP-SACK gains up
// to ~20% over TCP-PR at β = 10, while 1 < β < 5 stays even.
type AblationBetaConfig struct {
	Betas []float64
	// BandwidthMbps is the bottleneck bandwidth used to induce heavy
	// loss; default 1.2 Mbps with 16 flows.
	BandwidthMbps float64
	Flows         int
	Durations     Durations
	// Obs, when non-nil, is the run's telemetry session; every cell runs
	// inside one of its scopes.
	Obs *runobs.Session
}

func (c *AblationBetaConfig) fill() {
	if len(c.Betas) == 0 {
		c.Betas = []float64{1, 2, 3, 5, 10}
	}
	if c.BandwidthMbps == 0 {
		c.BandwidthMbps = 1.2
	}
	if c.Flows == 0 {
		c.Flows = 16
	}
	if c.Durations == (Durations{}) {
		c.Durations = Full
	}
}

// AblationBetaPoint is one β measurement.
type AblationBetaPoint struct {
	Beta     float64
	LossRate float64
	MeanSACK float64
	MeanPR   float64
}

// AblationBetaResult aggregates the β sweep.
type AblationBetaResult struct {
	Config AblationBetaConfig
	Points []AblationBetaPoint
}

// RunAblationBeta reproduces the §4 text observation about β under heavy
// loss.
func RunAblationBeta(cfg AblationBetaConfig) AblationBetaResult {
	cfg.fill()
	res := AblationBetaResult{Config: cfg}
	for _, beta := range cfg.Betas {
		s := dumbbellScenario(cfg.Flows, topo.Mbps(cfg.BandwidthMbps))
		sc := cfg.Obs.Open(fmt.Sprintf("ablation-beta_b%g", beta), cfg.Durations.total(), s.net, s.sched)
		flows := mixedRun(s, workload.TCPPR, workload.TCPSACK,
			workload.PRParams{Beta: beta}, cfg.Durations, staggeredStarts(len(s.slots)), sc)
		sc.Finish(runobs.Fields{Experiment: "ablation-beta", Topology: "dumbbell", Variant: "TCP-PR vs TCP-SACK",
			Params: map[string]float64{"beta": beta, "flows": float64(cfg.Flows)}})
		bytes := make([]float64, len(flows))
		for i, f := range flows {
			bytes[i] = float64(f.WindowBytes())
		}
		norm := stats.Normalized(bytes)
		meanPR, meanSACK := protocolMeans(flows, norm, workload.TCPPR, workload.TCPSACK)
		res.Points = append(res.Points, AblationBetaPoint{
			Beta: beta, LossRate: s.lossRate(),
			MeanSACK: meanSACK, MeanPR: meanPR,
		})
	}
	return res
}

// Table renders the β sweep.
func (r AblationBetaResult) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Ablation (beta under heavy loss, %g Mbps bottleneck, %d flows)", r.Config.BandwidthMbps, r.Config.Flows),
		Header: []string{"beta", "loss_rate", "mean_norm_TCP-SACK", "mean_norm_TCP-PR"},
	}
	for _, p := range r.Points {
		t.AddRow(f2(p.Beta), f3(p.LossRate), f3(p.MeanSACK), f3(p.MeanPR))
	}
	return t
}

// AblationBurstResult compares TCP-PR's drop reaction with and without
// the design features the paper highlights, on a lossy dumbbell where
// congestion bursts actually occur.
type AblationBurstResult struct {
	Rows []AblationBurstRow
}

// AblationBurstRow is one configuration's outcome.
type AblationBurstRow struct {
	Name       string
	Mbps       float64
	Halvings   uint64
	BurstDrops uint64
	Extremes   uint64
}

// RunAblationMemorize contrasts normal TCP-PR against one whose memorize
// list never absorbs drops (every drop halves), quantifying the paper's
// "one reaction per burst" design choice. Both run as a single flow on a
// small-buffer dumbbell that produces multi-drop congestion events.
func RunAblationMemorize(d Durations, obs *runobs.Session) AblationBurstResult {
	return AblationBurstResult{Rows: []AblationBurstRow{
		burstRow("ablation-memorize", "memorize (paper)", core.Config{}, d, obs),
		burstRow("ablation-memorize", "no memorize", core.Config{DisableMemorize: true}, d, obs),
	}}
}

// burstRow runs one TCP-PR configuration as a single flow on a
// small-buffer dumbbell that produces multi-drop congestion events.
func burstRow(experiment, name string, cfg core.Config, d Durations, obs *runobs.Session) AblationBurstRow {
	sched := sim.NewScheduler()
	db := topo.NewDumbbell(sched, topo.DumbbellConfig{
		Hosts: 1, BottleneckBW: topo.Mbps(8), Queue: 20,
	})
	sc := obs.Open(experiment+" "+name, d.total(), db.Net, sched)
	f := tcp.NewFlow(db.Net, 1, db.Src(0), db.Dst(0),
		routing.Static{Path: db.FwdPath(0)}, routing.Static{Path: db.RevPath(0)})
	var s *core.Sender
	f.Attach(func(env tcp.SenderEnv) tcp.Sender {
		s = core.New(env, cfg)
		return s
	})
	f.Start(0)
	sc.Flows(&workload.Flow{Flow: f, Protocol: workload.TCPPR})
	sc.Links(db.Bottleneck)
	var start, end int64
	sched.At(d.Warm, func() { start = f.UniqueBytes() })
	sched.At(d.Warm+d.Measure, func() { end = f.UniqueBytes() })
	sched.RunUntil(d.Warm + d.Measure)
	sc.Finish(runobs.Fields{Experiment: experiment, Topology: "dumbbell", Variant: name})
	return AblationBurstRow{
		Name:       name,
		Mbps:       stats.Mbps(stats.Throughput(end-start, d.Measure)),
		Halvings:   s.Halvings,
		BurstDrops: s.BurstDrops,
		Extremes:   s.ExtremeEvents,
	}
}

// RunAblationHoleMode contrasts TCP-PR's three hole policies (see
// core.HoleMode) in the fairness setting where they differ most: mixed
// TCP-PR/TCP-SACK flows on a dumbbell. It quantifies the DESIGN.md
// resolution-6 measurement.
func RunAblationHoleMode(d Durations, obs *runobs.Session) *Table {
	t := &Table{
		Title:  "Ablation: TCP-PR hole policy (8 PR + 8 SACK flows, dumbbell)",
		Header: []string{"policy", "mean_norm_TCP-PR", "mean_norm_TCP-SACK"},
	}
	for _, mode := range []core.HoleMode{core.HoleThrottled, core.HoleFreeze, core.HoleFullClock} {
		mode := mode
		s := dumbbellScenario(16, 0)
		sc := obs.Open("ablation-holemode_"+mode.String(), d.total(), s.net, s.sched)
		starts := staggeredStarts(16)
		flows := make([]*workload.Flow, 0, 16)
		for i, slot := range s.slots {
			f := tcp.NewFlow(s.net, i+1, slot.src, slot.dst, slot.fwd, slot.rev)
			if i%2 == 0 {
				f.Attach(func(env tcp.SenderEnv) tcp.Sender {
					return core.New(env, core.Config{Hole: mode})
				})
				f.Start(starts[i])
				flows = append(flows, &workload.Flow{Flow: f, Protocol: workload.TCPPR})
			} else {
				flows = append(flows, workload.NewFlow(f, workload.TCPSACK, workload.PRParams{}, starts[i]))
			}
		}
		sc.Flows(flows...)
		for _, f := range flows {
			f.MarkWindow(s.sched, d.Warm, d.Warm+d.Measure)
		}
		s.sched.RunUntil(d.Warm + d.Measure)
		sc.Finish(runobs.Fields{Experiment: "ablation-holemode", Topology: "dumbbell", Variant: mode.String()})
		bytes := make([]float64, len(flows))
		for i, f := range flows {
			bytes[i] = float64(f.WindowBytes())
		}
		norm := stats.Normalized(bytes)
		meanPR, meanSACK := protocolMeans(flows, norm, workload.TCPPR, workload.TCPSACK)
		t.AddRow(mode.String(), f3(meanPR), f3(meanSACK))
	}
	return t
}

// RunAblationSendCwnd contrasts halving from the cwnd recorded at send
// time (the paper's choice, insensitive to detection delay) against
// halving from the current cwnd.
func RunAblationSendCwnd(d Durations, obs *runobs.Session) AblationBurstResult {
	return AblationBurstResult{Rows: []AblationBurstRow{
		burstRow("ablation-sendcwnd", "cwnd at send time (paper)", core.Config{}, d, obs),
		burstRow("ablation-sendcwnd", "current cwnd", core.Config{HalveFromCurrentCwnd: true}, d, obs),
	}}
}

// Table renders a burst-ablation result.
func (r AblationBurstResult) Table(title string) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"variant", "mbps", "halvings", "burst_drops", "extreme_events"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, f2(row.Mbps), fmt.Sprint(row.Halvings),
			fmt.Sprint(row.BurstDrops), fmt.Sprint(row.Extremes))
	}
	return t
}
