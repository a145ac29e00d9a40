package experiments

import (
	"fmt"
	"time"

	"tcppr/internal/faults"
	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/tcp"
	"tcppr/internal/workload"
)

// FaultMatrixConfig parameterizes the survival matrix: every protocol runs
// a single long-lived flow over the default dumbbell while each canned
// fault scenario (internal/faults) hits the bottleneck mid-run.
type FaultMatrixConfig struct {
	// Protocols to compare; nil selects TCP-PR plus the three standard
	// baselines (NewReno, TCP-SACK, TD-FR).
	Protocols []string
	// Scenarios names the fault timelines to run; nil selects every
	// canned scenario, including the fault-free "none" baseline row.
	Scenarios []string
	// Total is the simulated run length; zero selects 30s.
	Total time.Duration
	// FaultAt is when each scenario's disruption begins; zero selects 5s
	// (past slow start, so the fault hits a converged flow).
	FaultAt time.Duration
	// Seed drives the scenarios' random processes (burst loss, ramps).
	Seed int64
	// Obs, when non-nil, is the run's telemetry session: every cell runs
	// inside one of its scopes, so whatever the session asks for — series
	// and manifests (with the applied fault events listed and counted in
	// the faults.* counters), the conformance oracle, per-cell traces and
	// flight dumps — applies to each cell.
	Obs *runobs.Session
}

func (c *FaultMatrixConfig) fill() {
	if c.Protocols == nil {
		c.Protocols = []string{workload.TCPPR, workload.NewReno, workload.TCPSACK, workload.TDFR}
	}
	if c.Scenarios == nil {
		c.Scenarios = faults.ScenarioNames()
	}
	if c.Total == 0 {
		c.Total = 30 * time.Second
	}
	if c.FaultAt == 0 {
		c.FaultAt = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// FaultMatrixCell is one (scenario, protocol) outcome.
type FaultMatrixCell struct {
	Scenario string
	Protocol string
	// GoodputMbps is unique delivered bytes over the whole run — outage
	// included, so it prices both the disruption and the recovery.
	GoodputMbps float64
	// RetxSegs counts retransmitted data segments over the run.
	RetxSegs uint64
	// Recovery is the gap between the end of the disruption window and
	// the first new unique byte ACKed after it: how long the sender took
	// to get moving again once the network healed. Negative means it
	// never recovered within the run.
	Recovery time.Duration
	// FaultEvents is the number of fault actions the timeline applied.
	FaultEvents int
}

// FaultMatrixResult is the survival matrix plus the config that ran it.
type FaultMatrixResult struct {
	Cells  []FaultMatrixCell
	Config FaultMatrixConfig
}

// RunFaultMatrix runs every (scenario, protocol) cell and returns the
// matrix. Rows come out scenario-major in the configured order.
func RunFaultMatrix(cfg FaultMatrixConfig) (FaultMatrixResult, error) {
	cfg.fill()
	cells, err := runMatrix(matrix{
		name:   "faultmatrix",
		axes:   []axis{{cfg.Scenarios, catalog(faults.ScenarioByName)}, {names: cfg.Protocols}},
		total:  cfg.Total,
		seed:   cfg.Seed,
		params: map[string]float64{"fault_at_s": cfg.FaultAt.Seconds()},
		obs:    cfg.Obs,
	}, func(c *matrixCell) func() FaultMatrixCell { return faultCell(c, cfg) })
	return FaultMatrixResult{Cells: cells, Config: cfg}, err
}

// faultCell sets up one protocol under one fault scenario.
func faultCell(c *matrixCell, cfg FaultMatrixConfig) func() FaultMatrixCell {
	sc, _ := faults.ScenarioByName(c.Key[0]) // runMatrix vouched for the name
	proto := c.Key[1]

	tl := faults.NewTimeline()
	c.Scope.Timeline(tl)
	sc.Build(tl, c.DB.Bottleneck, c.Rev, sim.Time(cfg.FaultAt), cfg.Seed)
	tl.Install(c.Sched)

	f := c.Flow()

	// Recovery clock: snapshot delivered bytes when the disruption window
	// closes, then stamp the first ACK that acknowledges anything beyond
	// it. OnAckSent (not OnDataRecv) because flow hooks fire before the
	// receiver ingests the segment, so only the ACK hook sees the updated
	// unique-byte count.
	disruptEnd := sim.Time(cfg.FaultAt) + sim.Time(sc.Disrupt)
	recovery := time.Duration(-1)
	var baseline int64
	c.Sched.At(disruptEnd, func() { baseline = f.UniqueBytes() })
	f.Hooks = tcp.FlowHooks{OnAckSent: func(_ tcp.Ack, now sim.Time) {
		if recovery < 0 && now > disruptEnd && f.UniqueBytes() > baseline {
			recovery = time.Duration(now - disruptEnd)
		}
	}}.Chain(f.Hooks)

	c.Scope.Flows(workload.NewFlow(f, proto, workload.PRParams{}, 0))

	return func() FaultMatrixCell {
		if sc.Disrupt == 0 {
			recovery = 0 // nothing to recover from on the baseline row
		}
		return FaultMatrixCell{
			Scenario:    sc.Name,
			Protocol:    proto,
			GoodputMbps: stats.Mbps(stats.Throughput(f.UniqueBytes(), cfg.Total)),
			RetxSegs:    f.DataRetx(),
			Recovery:    recovery,
			FaultEvents: len(tl.Applied()),
		}
	}
}

// Table renders the survival matrix in long format: one row per cell with
// goodput, retransmissions, and recovery time.
func (r FaultMatrixResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Extension: fault survival matrix — single flow, 15 Mbps dumbbell, %v run, fault at %v",
			r.Config.Total, r.Config.FaultAt),
		Header: []string{"scenario", "protocol", "goodput (Mbps)", "retx segs", "recovery (s)"},
	}
	for _, c := range r.Cells {
		rec := "never"
		switch {
		case c.Recovery == 0 && c.Scenario == "none":
			rec = "-"
		case c.Recovery >= 0:
			rec = fmt.Sprintf("%.3f", c.Recovery.Seconds())
		}
		t.AddRow(c.Scenario, c.Protocol, f2(c.GoodputMbps), fmt.Sprintf("%d", c.RetxSegs), rec)
	}
	return t
}
