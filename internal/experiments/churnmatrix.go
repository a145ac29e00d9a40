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

// ChurnMatrixConfig parameterizes the endpoint-churn survival matrix:
// every protocol runs an abort-aware retrying workload over the default
// dumbbell while each canned host scenario (internal/faults) kills,
// reboots, or flaps the peer host mid-run. Where the fault matrix asks
// "does the transport survive a broken *network*", this one asks "does the
// whole stack — RFC 1122 abort semantics plus application retry — behave
// when the *endpoint* churns": nobody may abort on a sub-RTO blip, flows
// facing a dead peer must terminate in bounded virtual time, and a
// flapping host must not wedge the retry ladder.
type ChurnMatrixConfig struct {
	// Protocols to compare; nil selects every registered variant.
	Protocols []string
	// Scenarios names the host scenarios to run; nil selects all of them.
	Scenarios []string
	// Total is the simulated run length; zero selects 90s.
	Total time.Duration
	// FaultAt is when each scenario's churn begins; zero selects 5s.
	FaultAt time.Duration
	// Seed drives the workload's random processes (page sizes, think
	// times, retry jitter). Host scenarios themselves are RNG-free, so a
	// cell's abort/retry event log is a pure function of (Seed, cell).
	Seed int64
	// Obs is the run's telemetry session, as in FaultMatrixConfig.
	Obs *runobs.Session
}

func (c *ChurnMatrixConfig) fill() {
	if c.Protocols == nil {
		c.Protocols = workload.AllProtocols()
	}
	if c.Scenarios == nil {
		c.Scenarios = faults.HostScenarioNames()
	}
	if c.Total == 0 {
		c.Total = 90 * time.Second
	}
	if c.FaultAt == 0 {
		c.FaultAt = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// churnRetry is the per-transfer abort/retry policy: an abort ladder short
// enough to resolve inside Total. R1=2, R2=3 (abort on the third
// consecutive RTO), 2 connection attempts, 500ms base backoff capped at
// 4s. Budget math: a connection opened against an already-dead host starts
// from the conservative initial RTO (no RTT samples), so its R2=3 ladder
// alone runs 21–39s depending on the variant — Total must cover FaultAt +
// one established-RTT ladder + one cold ladder per retry.
var churnRetry = workload.RetryConfig{
	Abort:       tcp.AbortConfig{R1: 2, R2: 3},
	MaxAttempts: 2,
	BaseBackoff: 500 * time.Millisecond,
	MaxBackoff:  4 * time.Second,
}

// ChurnMatrixCell is one (host scenario, protocol) outcome.
type ChurnMatrixCell struct {
	Scenario string
	Protocol string
	// GoodputMbps is completed-transfer payload over the whole run.
	GoodputMbps float64
	// Transfers counts completed page transfers.
	Transfers int
	// Aborts counts connection aborts (all causes); SpuriousAborts the
	// subset recorded while the peer host was UP at the abort instant —
	// on the blip scenario any abort is spurious by construction, on a
	// flap it marks an R2 ladder completing after the host returned.
	Aborts         int
	SpuriousAborts int
	// Retries counts re-established connections, GaveUp abandoned
	// transfers (the workload's bounded-termination outcome).
	Retries int
	GaveUp  int
	// Recovery is the gap between the end of the churn window and the
	// first new unique byte delivered after it. Negative means never —
	// the expected (and only acceptable) value for permanent scenarios.
	Recovery time.Duration
	// FaultEvents is the number of host faults the timeline applied.
	FaultEvents int
	// Events is the cell's ordered abort/retry event log ("open" per
	// connection attempt, "abort" per abort with cause and peer state).
	// Same seed ⇒ byte-identical log; the determinism test pins this.
	Events []string
}

// ChurnMatrixResult is the churn matrix plus the config that ran it.
type ChurnMatrixResult struct {
	Cells  []ChurnMatrixCell
	Config ChurnMatrixConfig
}

// RunChurnMatrix runs every (host scenario, protocol) cell and returns
// the matrix, scenario-major in the configured order.
func RunChurnMatrix(cfg ChurnMatrixConfig) (ChurnMatrixResult, error) {
	cfg.fill()
	cells, err := runSweep(survival("churnmatrix", cfg.Total, cfg.Seed,
		map[string]float64{"fault_at_s": cfg.FaultAt.Seconds()}, cfg.Obs,
		cfg.Protocols, names(cfg.Scenarios, catalog(faults.HostScenarioByName))),
		func(c *cell[[]string]) func() ChurnMatrixCell { return churnCell(c, cfg) })
	return ChurnMatrixResult{Cells: cells, Config: cfg}, err
}

// churnCell sets up one protocol's retrying workload under one host
// scenario.
func churnCell(c *cell[[]string], cfg ChurnMatrixConfig) func() ChurnMatrixCell {
	sc, _ := faults.HostScenarioByName(c.Key[0]) // runSweep vouched for the name
	proto := c.Key[1]
	slot, sched := c.slots[0], c.Sched
	peer := slot.dst
	c.Scope.Links(c.bottlenecks[0], c.rev)

	tl := faults.NewTimeline()
	c.Scope.Timeline(tl)
	faults.InstrumentHostDrops(c.Scope.Registry(), c.net)
	sc.Build(tl, peer, sim.Time(cfg.FaultAt))
	tl.Install(sched)

	cell := ChurnMatrixCell{Scenario: sc.Name, Protocol: proto, Recovery: -1}
	disruptEnd := sim.Time(cfg.FaultAt) + sim.Time(sc.Disrupt)

	retry := churnRetry // per-cell copy: the source keeps a pointer
	src := workload.NewOnOffSource(c.net, 1000, slot.src, peer, slot.fwd, slot.rev,
		workload.OnOffConfig{
			MeanSizePkts: 100,
			MeanThink:    200 * time.Millisecond,
			Protocol:     proto,
			Retry:        &retry,
			OnFlow: func(f *tcp.Flow, protocol string) {
				c.Scope.Flow(f, protocol)
				cell.Events = append(cell.Events,
					fmt.Sprintf("%.6f\topen\tflow=%d", time.Duration(sched.Now()).Seconds(), f.ID))
				lastUB := int64(0)
				f.Hooks = f.Hooks.Chain(tcp.FlowHooks{
					OnAckSent: func(_ tcp.Ack, now sim.Time) {
						if ub := f.UniqueBytes(); ub > lastUB {
							lastUB = ub
							if !sc.Permanent && cell.Recovery < 0 && now > disruptEnd {
								cell.Recovery = time.Duration(now - disruptEnd)
							}
						}
					},
					OnAbort: func(reason tcp.AbortReason, now sim.Time) {
						cell.Aborts++
						peerUp := !peer.IsDown()
						if peerUp {
							cell.SpuriousAborts++
						}
						cell.Events = append(cell.Events,
							fmt.Sprintf("%.6f\tabort\tflow=%d\tcause=%s\tpeer_up=%v",
								time.Duration(now).Seconds(), f.ID, reason, peerUp))
					},
				})
			},
		},
		sim.NewRand(c.Seed))
	src.Start(0)

	return func() ChurnMatrixCell {
		cell.GoodputMbps = stats.Mbps(stats.Throughput(src.BytesDelivered, cfg.Total))
		cell.Transfers = src.Transfers
		cell.Retries = src.Retries
		cell.GaveUp = src.GaveUp
		cell.FaultEvents = len(tl.Applied())
		return cell
	}
}

// Table renders the churn matrix in long format: one row per cell.
func (r ChurnMatrixResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Extension: endpoint-churn matrix — retrying web workload, 15 Mbps dumbbell, %v run, churn at %v (R2=%d, %d attempts)",
			r.Config.Total, r.Config.FaultAt, churnRetry.Abort.R2, churnRetry.MaxAttempts),
		Header: []string{"scenario", "protocol", "goodput (Mbps)", "transfers",
			"aborts", "spurious", "retries", "gave up", "recovery (s)"},
		csv: "churnmatrix.csv",
	}
	for _, c := range r.Cells {
		rec := "never"
		if c.Recovery >= 0 {
			rec = fmt.Sprintf("%.3f", c.Recovery.Seconds())
		}
		t.AddRow(c.Scenario, c.Protocol, f2(c.GoodputMbps),
			fmt.Sprintf("%d", c.Transfers), fmt.Sprintf("%d", c.Aborts),
			fmt.Sprintf("%d", c.SpuriousAborts), fmt.Sprintf("%d", c.Retries),
			fmt.Sprintf("%d", c.GaveUp), rec)
	}
	return t
}

// EventsTable renders every cell's abort/retry event log as one long
// table — the deterministic artifact the same-seed replay test compares.
func (r ChurnMatrixResult) EventsTable() *Table {
	t := &Table{
		Title:  "Endpoint-churn event log (time, event, connection, detail)",
		Header: []string{"scenario", "protocol", "event"},
		csv:    "churnmatrix_events.csv", quiet: true,
	}
	for _, c := range r.Cells {
		for _, e := range c.Events {
			t.AddRow(c.Scenario, c.Protocol, e)
		}
	}
	return t
}
