package experiments

import (
	"fmt"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// RobustnessScenario names one impairment applied to a single-flow
// dumbbell.
type RobustnessScenario string

// The robustness scenarios, each tied to a claim or motivation in the
// paper:
const (
	// ScenarioBaseline is the unimpaired reference.
	ScenarioBaseline RobustnessScenario = "baseline"
	// ScenarioAckLoss drops 10% of ACKs on the reverse path. §3: TCP-PR
	// "is also robust to acknowledgment losses" because it never
	// distinguishes data-path from ACK-path loss.
	ScenarioAckLoss RobustnessScenario = "ack loss 10%"
	// ScenarioDelayedAcks switches the receiver to RFC 1122 delayed
	// ACKs. §3: TCP-PR requires no receiver changes, so it must work
	// with both standard receiver behaviours.
	ScenarioDelayedAcks RobustnessScenario = "delayed ACKs"
	// ScenarioJitter adds ±30 ms independent per-packet delay variation
	// at the bottleneck, the single-path reordering a DiffServ/QoS
	// element introduces (§1's deployment motivation).
	ScenarioJitter RobustnessScenario = "30ms jitter"
	// ScenarioRED replaces the bottleneck's drop-tail queue with RED,
	// changing the loss pattern from bursty to spread-out.
	ScenarioRED RobustnessScenario = "RED queue"
)

// RobustnessScenarios returns the scenario list in display order.
func RobustnessScenarios() []RobustnessScenario {
	return []RobustnessScenario{
		ScenarioBaseline, ScenarioAckLoss, ScenarioDelayedAcks, ScenarioJitter, ScenarioRED,
	}
}

// RobustnessResult is the goodput grid (Mbps) of scenario × protocol.
type RobustnessResult struct {
	Protocols []string
	Rows      map[RobustnessScenario]map[string]float64
	Durations Durations
}

// RunRobustness measures each protocol's single-flow goodput on a 15 Mbps
// dumbbell under each impairment.
func RunRobustness(d Durations, obs *runobs.Session) RobustnessResult {
	protos := []string{workload.TCPPR, workload.TCPSACK, workload.NewReno, workload.TDFR}
	res := RobustnessResult{
		Protocols: protos,
		Rows:      make(map[RobustnessScenario]map[string]float64),
		Durations: d,
	}
	for _, sc := range RobustnessScenarios() {
		res.Rows[sc] = make(map[string]float64)
		for _, proto := range protos {
			res.Rows[sc][proto] = runRobustnessCell(sc, proto, d, obs)
		}
	}
	return res
}

func runRobustnessCell(sc RobustnessScenario, proto string, d Durations, obs *runobs.Session) float64 {
	sched := sim.NewScheduler()
	db := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	scope := obs.Open(fmt.Sprintf("robustness %s %s", sc, proto), d.total(), db.Net, sched)
	f := tcp.NewFlow(db.Net, 1, db.Src(0), db.Dst(0),
		routing.Static{Path: db.FwdPath(0)}, routing.Static{Path: db.RevPath(0)})

	switch sc {
	case ScenarioAckLoss:
		// Drop ACKs on the reverse bottleneck hop.
		db.Net.FindLink("R", "L").SetLoss(0.10, sim.NewRand(17))
	case ScenarioDelayedAcks:
		f.DelayedAcks = true
	case ScenarioJitter:
		db.Bottleneck.SetImpairment(netem.NewJitter(30*time.Millisecond, sim.NewRand(18)))
	case ScenarioRED:
		db.Bottleneck.AttachRED(netem.NewRED(db.Bottleneck.QueueCap, sim.NewRand(19)))
	}

	wf := workload.NewFlow(f, proto, workload.PRParams{}, 0)
	scope.Flows(wf)
	wf.MarkWindow(sched, d.Warm, d.Warm+d.Measure)
	sched.RunUntil(d.Warm + d.Measure)
	scope.Finish(runobs.Fields{Experiment: "ext-robustness", Topology: "dumbbell", Variant: string(sc) + "/" + proto})
	return stats.Mbps(stats.Throughput(wf.WindowBytes(), d.Measure))
}

// Table renders the grid.
func (r RobustnessResult) Table() *Table {
	t := &Table{
		Title:  "Extension: single-flow goodput (Mbps) under receiver/path impairments, 15 Mbps dumbbell",
		Header: append([]string{"scenario"}, r.Protocols...),
	}
	for _, sc := range RobustnessScenarios() {
		row := []string{string(sc)}
		for _, p := range r.Protocols {
			row = append(row, f2(r.Rows[sc][p]))
		}
		t.AddRow(row...)
	}
	return t
}
