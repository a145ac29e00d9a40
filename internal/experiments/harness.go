package experiments

import (
	"fmt"
	"strings"
	"time"

	"tcppr/internal/metrics"
	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// matrix declares one survival matrix: named axes crossed into cells,
// each cell one simulation over the default single-host dumbbell. The
// four *matrix.go files are declarations over runMatrix — a config, a
// cell struct, a cell body and tables.
type matrix struct {
	// name is the experiment name: scope-name prefix and manifest
	// Experiment.
	name string
	// axes are crossed outermost first; the last axis is the protocol.
	axes []axis
	// total is the simulated length of every cell.
	total time.Duration
	// seed is recorded in the manifests and split per cell.
	seed int64
	// params are recorded in every cell's manifest.
	params map[string]float64
	obs    *runobs.Session
}

// axis is one dimension of a matrix: the names to cross and the catalog
// lookup that vouches for each (nil on the protocol axis, which is
// checked against the workload registry).
type axis struct {
	names []string
	known func(name string) error
}

// catalog adapts a scenario-catalog lookup to axis.known.
func catalog[T any](byName func(string) (T, error)) func(string) error {
	return func(name string) error {
		_, err := byName(name)
		return err
	}
}

// matrixCell is what runMatrix hands a cell body: a fresh scheduler and
// dumbbell, the open telemetry scope (bottleneck and R→L already
// sampled), and the cell's place in the matrix.
type matrixCell struct {
	Sched *sim.Scheduler
	DB    *topo.Dumbbell
	// Rev is the bottleneck's reverse direction (R→L).
	Rev   *netem.Link
	Scope *runobs.Scope
	// Key holds the cell's name on each axis, Key[len-1] the protocol.
	Key []string
	// Idx is the cell's 1-based position in enumeration order and Seed
	// its own stream, sim.SplitSeed(matrix seed, Idx): adding or
	// reordering cells never perturbs another cell's randomness.
	Idx  int
	Seed int64
}

// Flow wires the cell's one connection, host pair 0 across the bottleneck.
func (c *matrixCell) Flow() *tcp.Flow {
	return tcp.NewFlow(c.DB.Net, 1, c.DB.Src(0), c.DB.Dst(0),
		routing.Static{Path: c.DB.FwdPath(0)}, routing.Static{Path: c.DB.RevPath(0)})
}

// runMatrix validates every axis name up front, then runs the cells in
// enumeration order (last axis fastest) across the parallelMap worker
// pool. The body sets its cell up and returns the function that collects
// the outcome once the clock has run to m.total; runMatrix owns the
// scheduler, the topology, the scope and its Finish.
func runMatrix[C any](m matrix, body func(c *matrixCell) (collect func() C)) ([]C, error) {
	n := 1
	for i, ax := range m.axes {
		for _, name := range ax.names {
			if i < len(m.axes)-1 {
				if err := ax.known(name); err != nil {
					return nil, err
				}
			} else if !workload.Known(name) {
				return nil, fmt.Errorf("%s: unknown protocol %q", m.name, name)
			}
		}
		n *= len(ax.names)
	}
	type outcome struct {
		cell C
		err  error
	}
	outs := parallelMap(n, func(i int) outcome {
		key := make([]string, len(m.axes))
		for a, rest := len(m.axes)-1, i; a >= 0; a-- {
			names := m.axes[a].names
			key[a] = names[rest%len(names)]
			rest /= len(names)
		}
		sched := sim.NewScheduler()
		db := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
		c := &matrixCell{
			Sched: sched, DB: db, Rev: db.Net.FindLink("R", "L"),
			Scope: m.obs.Open(m.name+"_"+strings.Join(key, "_"), m.total, db.Net, sched),
			Key:   key, Idx: i + 1, Seed: sim.SplitSeed(m.seed, int64(i+1)),
		}
		defer c.Scope.DumpOnPanic()
		c.Scope.Links(db.Bottleneck, c.Rev)
		collect := body(c)
		sched.RunUntil(sim.Time(m.total))
		out := collect()
		err := c.Scope.Finish(runobs.Fields{
			Experiment: m.name, Topology: "dumbbell", Variant: strings.Join(key, "/"),
			Seed: m.seed, Params: m.params,
		})
		return outcome{out, err}
	})
	cells := make([]C, n)
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		cells[i] = o.cell
	}
	return cells, nil
}

// meterCap is how many displacement-histogram buckets the reorder-metered
// matrices track exactly; larger displacements aggregate into an
// overflow bucket.
const meterCap = 16

// meterReordering hangs a reorder meter off f's data-arrival hook and
// samples its trajectories (reorder.rate / .kbound / .footrule) in the
// cell's scope. Seq is the send index (packets, ns-2 style) and
// retransmissions are excluded, the RFC 4737 convention trace.Recorder
// uses — so behind a repair box the meter reads the residual reordering.
func meterReordering(c *matrixCell, f *tcp.Flow) *stats.ReorderMeter {
	meter := stats.NewReorderMeter(meterCap)
	f.Hooks = tcp.FlowHooks{OnDataRecv: func(seg tcp.Seg, _ sim.Time) {
		if !seg.Retx {
			meter.Observe(seg.Seq)
		}
	}}.Chain(f.Hooks)
	metrics.InstrumentReorder(c.Scope.Sampler(), c.Scope.Registry(), meter, "reorder")
	return meter
}
