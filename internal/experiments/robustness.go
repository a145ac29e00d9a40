package experiments

import (
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// The robustness impairments, each tied to a claim or motivation in the
// paper:
//   - ack loss 10%: §3, TCP-PR "is also robust to acknowledgment losses"
//     because it never distinguishes data-path from ACK-path loss;
//   - delayed ACKs: §3, TCP-PR requires no receiver changes, so it must
//     work with both standard receiver behaviours (RFC 1122);
//   - 30ms jitter: ±30 ms independent per-packet delay variation at the
//     bottleneck, the single-path reordering a DiffServ/QoS element
//     introduces (§1's deployment motivation);
//   - RED queue: replaces drop-tail, changing the loss pattern from
//     bursty to spread-out.
var robustnessScenarios = []string{"baseline", "ack loss 10%", "delayed ACKs", "30ms jitter", "RED queue"}

// impaired is one robustness cell: a protocol under an impairment.
type impaired struct{ impairment, proto string }

// robustnessProtocols are the grid's columns.
var robustnessProtocols = []string{workload.TCPPR, workload.TCPSACK, workload.NewReno, workload.TDFR}

// robustnessSweep declares the robustness grid: each protocol's
// single-flow goodput (Mbps) on the 15 Mbps dumbbell under each
// impairment, impairment-major.
func robustnessSweep(d Durations, obs *runobs.Session) sweep[impaired] {
	return sweep[impaired]{
		name: "ext-robustness", d: d, obs: obs,
		axes: []axis[impaired]{
			along(robustnessScenarios, nil, func(k *impaired, s string) { k.impairment = s }),
			along(robustnessProtocols, nil, func(k *impaired, p string) { k.proto = p }),
		},
		build: func(c *cell[impaired]) world { return dumbbell(c.Sched, topo.DumbbellConfig{Hosts: 1}) },
		label: func(k impaired) (string, runobs.Fields) {
			return "robustness " + k.impairment + " " + k.proto, runobs.Fields{Variant: k.impairment + "/" + k.proto}
		},
	}
}

func robustnessCell(c *cell[impaired]) func() float64 {
	f := c.flow(0)
	switch c.Key.impairment {
	case "ack loss 10%":
		c.rev.SetLoss(0.10, sim.NewRand(17))
	case "delayed ACKs":
		f.DelayedAcks = true
	case "30ms jitter":
		c.bottlenecks[0].SetImpairment(netem.NewJitter(30*time.Millisecond, sim.NewRand(18)))
	case "RED queue":
		c.bottlenecks[0].AttachRED(netem.NewRED(c.bottlenecks[0].QueueCap, sim.NewRand(19)))
	}
	wf := workload.NewFlow(f, c.Key.proto, workload.PRParams{}, 0)
	c.Scope.Flows(wf)
	wf.MarkWindow(c.Sched, c.Warm, c.Horizon)
	return func() float64 { return stats.Mbps(stats.Throughput(wf.WindowBytes(), c.Horizon-c.Warm)) }
}

// robustness renders the grid: one row per impairment, one column per
// protocol.
func robustness(d Durations, obs *runobs.Session) ([]*Table, error) {
	mbps, err := runSweep(robustnessSweep(d, obs), robustnessCell)
	t := &Table{
		Title:  "Extension: single-flow goodput (Mbps) under receiver/path impairments, 15 Mbps dumbbell",
		Header: append([]string{"scenario"}, robustnessProtocols...),
		csv:    "ext_robustness.csv",
	}
	for i, row := range split(mbps, len(robustnessProtocols)) {
		cells := []string{robustnessScenarios[i]}
		for _, v := range row {
			cells = append(cells, f2(v))
		}
		t.AddRow(cells...)
	}
	return []*Table{t}, err
}
