package experiments

import (
	"fmt"

	"tcppr/internal/core"
	"tcppr/internal/runobs"
	"tcppr/internal/stats"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// burstVariant is one TCP-PR configuration of a burst ablation.
type burstVariant struct {
	name string
	cfg  core.Config
}

// burstRow is a burst-ablation outcome: goodput over the measurement
// window and the sender's drop-reaction counters.
type burstRow struct {
	burstVariant
	mbps                         float64
	halvings, burstDrops, extrem uint64
}

// ablationBurst contrasts TCP-PR configurations as a single flow on a
// small-buffer (20-packet) 8 Mbps dumbbell, where congestion produces
// multi-drop bursts — the setting of the paper's "one reaction per
// burst" design choices:
//
//   - ablation-memorize: normal TCP-PR against one whose memorize list
//     never absorbs drops (every drop halves);
//   - ablation-sendcwnd: halving from the cwnd recorded at send time (the
//     paper's choice, insensitive to detection delay) against halving
//     from the current cwnd.
func ablationBurst(name, title string, d Durations, obs *runobs.Session, variants ...burstVariant) ([]*Table, error) {
	rows, err := runSweep(sweep[burstVariant]{
		name: name, d: d, obs: obs,
		axes: []axis[burstVariant]{along(variants, nil, func(k *burstVariant, v burstVariant) { *k = v })},
		build: func(c *cell[burstVariant]) world {
			return dumbbell(c.Sched, topo.DumbbellConfig{Hosts: 1, BottleneckBW: topo.Mbps(8), Queue: 20})
		},
		label: func(k burstVariant) (string, runobs.Fields) {
			return name + " " + k.name, runobs.Fields{Variant: k.name}
		},
	}, func(c *cell[burstVariant]) func() burstRow {
		f := c.flow(0)
		var s *core.Sender
		f.Attach(func(env tcp.SenderEnv) tcp.Sender {
			s = core.New(env, c.Key.cfg)
			return s
		})
		f.Start(0)
		c.Scope.Flows(&workload.Flow{Flow: f, Protocol: workload.TCPPR})
		c.Scope.Links(c.bottlenecks[0])
		var start, end int64
		c.Sched.At(c.Warm, func() { start = f.UniqueBytes() })
		c.Sched.At(c.Horizon, func() { end = f.UniqueBytes() })
		return func() burstRow {
			return burstRow{c.Key, stats.Mbps(stats.Throughput(end-start, d.Measure)), s.Halvings, s.BurstDrops, s.ExtremeEvents}
		}
	})
	t := &Table{Title: title, Header: []string{"variant", "mbps", "halvings", "burst_drops", "extreme_events"}}
	for _, r := range rows {
		t.AddRow(r.name, f2(r.mbps), fmt.Sprint(r.halvings), fmt.Sprint(r.burstDrops), fmt.Sprint(r.extrem))
	}
	return []*Table{t}, err
}
