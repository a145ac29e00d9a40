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

// sweep declares one experiment: typed axes crossed into cells, each cell
// one simulation on the network its build wires. Every figure, ablation,
// extension and survival matrix is a sweep run by runSweep; a declaration
// says what a cell is, never how cells are enumerated, fanned out or
// instrumented.
type sweep[K any] struct {
	// name is the experiment name: the manifests' Experiment.
	name string
	// axes are crossed outermost first, the last one fastest. A cell's
	// key K starts as the zero value and each axis sets its part.
	axes []axis[K]
	// d is every cell's window: it runs d.Warm+d.Measure of simulated
	// time (build may lengthen the warm-up). Matrices measure the whole
	// run: Durations{Measure: total}.
	d Durations
	// seed is split per cell into cell.Seed.
	seed int64
	obs  *runobs.Session
	// build wires a cell's network before its scope opens: whatever it
	// schedules orders ahead of the sampler's first tick.
	build func(c *cell[K]) world
	// label names a cell's scope (the pinned artifact stem) and fills the
	// manifest fields only the declaration knows; runSweep sets
	// Experiment and Topology.
	label func(k K) (scope string, f runobs.Fields)
}

// axis is one typed dimension of a sweep: how many values it has, and
// at, which returns the check's verdict on value i and, given a cell key,
// sets the value into it.
type axis[K any] struct {
	n  int
	at func(k *K, i int) error
}

// along declares an axis over vals. known (nil: every value is valid)
// vouches for each value before any cell runs.
func along[K, T any](vals []T, known func(T) error, set func(k *K, v T)) axis[K] {
	return axis[K]{len(vals), func(k *K, i int) error {
		if k != nil {
			set(k, vals[i])
		}
		if known == nil {
			return nil
		}
		return known(vals[i])
	}}
}

// names declares a survival-matrix axis: catalog names appended to the
// cell key in axis order.
func names(vals []string, known func(string) error) axis[[]string] {
	return along(vals, known, func(k *[]string, v string) { *k = append(*k, v) })
}

// catalog adapts a scenario-catalog lookup to an axis check.
func catalog[T any](byName func(string) (T, error)) func(string) error {
	return func(name string) error {
		_, err := byName(name)
		return err
	}
}

// knownProtocol checks a protocol axis against the workload registry.
func knownProtocol(experiment string) func(string) error {
	return func(p string) error {
		if !workload.Known(p) {
			return fmt.Errorf("%s: unknown protocol %q", experiment, p)
		}
		return nil
	}
}

// knownTopology checks a topology axis against the builders.
func knownTopology(t string) error {
	if t != "dumbbell" && t != "parkinglot" {
		return fmt.Errorf("experiments: unknown topology %q", t)
	}
	return nil
}

// world is a cell's wired network: what its scope watches and its flows
// attach to.
type world struct {
	// topology is the manifests' Topology.
	topology string
	net      *netem.Network
	// slots are the host pairs flows attach between, in flow order.
	slots []flowSlot
	// bottlenecks are the links whose drops make the loss rate; rev is
	// the dumbbell bottleneck's reverse direction (R→L).
	bottlenecks []*netem.Link
	rev         *netem.Link
	// started is a measurement flow build already started (Fig 6 starts
	// its flow ahead of the sampler's first tick).
	started *workload.Flow
}

// flowSlot is one (source, destination) pair with its two routers.
type flowSlot struct {
	src, dst *netem.Node
	fwd, rev routing.Router
}

// flow wires connection i+1 across slot i.
func (w *world) flow(i int) *tcp.Flow {
	s := w.slots[i]
	return tcp.NewFlow(w.net, i+1, s.src, s.dst, s.fwd, s.rev)
}

// lossRate returns the aggregate drop fraction across the bottlenecks.
func (w *world) lossRate() float64 {
	var offered, dropped uint64
	for _, l := range w.bottlenecks {
		st := l.Stats()
		offered += st.Enqueued + st.Dropped + st.REDDropped
		dropped += st.Dropped + st.REDDropped
	}
	if offered == 0 {
		return 0
	}
	return float64(dropped) / float64(offered)
}

// dumbbell builds a dumbbell, one slot per host pair.
func dumbbell(sched *sim.Scheduler, cfg topo.DumbbellConfig) world {
	d := topo.NewDumbbell(sched, cfg)
	w := world{topology: "dumbbell", net: d.Net, bottlenecks: []*netem.Link{d.Bottleneck}, rev: d.Net.FindLink("R", "L")}
	for i := 0; i < cfg.Hosts; i++ {
		w.slots = append(w.slots, flowSlot{d.Src(i), d.Dst(i),
			routing.Static{Path: d.FwdPath(i)}, routing.Static{Path: d.RevPath(i)}})
	}
	return w
}

// parkingLot builds the Fig 1 parking lot with n main host pairs and the
// paper's six TCP-SACK cross-traffic connections already running.
func parkingLot(sched *sim.Scheduler, n int) world {
	p := topo.NewParkingLot(sched, n, 0)
	w := world{topology: "parkinglot", net: p.Net, bottlenecks: []*netem.Link{
		p.Net.FindLink("r1", "r2"), p.Net.FindLink("r2", "r3"), p.Net.FindLink("r3", "r4"),
	}}
	for i := 0; i < n; i++ {
		w.slots = append(w.slots, flowSlot{p.Src(i), p.Dst(i),
			routing.Static{Path: p.MainFwd(i)}, routing.Static{Path: p.MainRev(i)}})
	}
	for i, cp := range topo.CrossPairs() {
		f := tcp.NewFlow(p.Net, 10_000+i, p.Net.Node(cp.Src), p.Net.Node(cp.Dst),
			routing.Static{Path: p.CrossFwd(cp)}, routing.Static{Path: p.CrossRev(cp)})
		workload.NewFlow(f, workload.TCPSACK, workload.PRParams{}, 0)
	}
	return w
}

// multipath builds the Fig 5 topology (three disjoint paths, delay per
// link) with one slot whose routers spread packets by ε-routing, each
// direction drawing from its own seeded stream.
func multipath(sched *sim.Scheduler, delay time.Duration, eps float64, fwdSeed, revSeed int64) world {
	m := topo.NewMultipath(sched, 3, delay)
	return world{topology: "multipath", net: m.Net, slots: []flowSlot{{m.Src, m.Dst,
		routing.NewEpsilon(m.FwdPaths, eps, sim.NewRand(fwdSeed)),
		routing.NewEpsilon(m.RevPaths, eps, sim.NewRand(revSeed))}}}
}

// cell is one simulation of a sweep, handed to build and then to the
// declaration's body.
type cell[K any] struct {
	world
	Key K
	// Idx is the cell's 1-based position in enumeration order and Seed
	// its own stream, sim.SplitSeed(sweep seed, Idx): adding or
	// reordering cells never perturbs another cell's randomness.
	Idx   int
	Seed  int64
	Sched *sim.Scheduler
	Scope *runobs.Scope
	// Warm ends the warm-up and Horizon the run.
	Warm, Horizon time.Duration
}

// runSweep validates every axis value up front, then runs the cells in
// enumeration order across the parallelMap worker pool. For each cell it
// builds the network, opens the scope, hands the cell to body, runs the
// clock to the horizon, collects the outcome body returned the function
// for, and finishes the scope. It returns the outcomes in enumeration
// order and the first error any scope's Finish reported.
func runSweep[K, C any](s sweep[K], body func(c *cell[K]) (collect func() C)) ([]C, error) {
	n := 1
	for _, ax := range s.axes {
		for i := 0; i < ax.n; i++ {
			if err := ax.at(nil, i); err != nil {
				return nil, err
			}
		}
		n *= ax.n
	}
	type outcome struct {
		out C
		err error
	}
	outs := parallelMap(n, func(i int) outcome {
		c := &cell[K]{Idx: i + 1, Seed: sim.SplitSeed(s.seed, int64(i+1)), Sched: sim.NewScheduler(), Warm: s.d.Warm}
		stride := n
		for _, ax := range s.axes {
			stride /= ax.n               // cells per value of this axis: the later axes' product
			ax.at(&c.Key, i/stride%ax.n) // vouched for above
		}
		c.world = s.build(c)
		c.Horizon = c.Warm + s.d.Measure
		var f runobs.Fields
		if s.obs != nil { // a nil session records nothing: skip the labelling
			var name string
			name, f = s.label(c.Key)
			c.Scope = s.obs.Open(name, c.Horizon, c.net, c.Sched)
		}
		defer c.Scope.DumpOnPanic()
		collect := body(c)
		c.Sched.RunUntil(c.Horizon)
		out := collect()
		f.Experiment, f.Topology = s.name, c.topology
		return outcome{out, c.Scope.Finish(f)}
	})
	cells := make([]C, n)
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		cells[i] = o.out
	}
	return cells, nil
}

// survival declares a survival matrix: catalog-named row axes, then the
// protocol axis, over the single-host dumbbell, each cell run for total
// and named <experiment>_<axes…>. Its body samples both bottleneck
// directions first (c.Scope.Links(c.bottlenecks[0], c.rev)).
func survival(name string, total time.Duration, seed int64, params map[string]float64, obs *runobs.Session,
	protocols []string, rows ...axis[[]string]) sweep[[]string] {
	return sweep[[]string]{
		name: name, axes: append(rows, names(protocols, knownProtocol(name))),
		d: Durations{Measure: total}, seed: seed, obs: obs,
		build: func(c *cell[[]string]) world { return dumbbell(c.Sched, topo.DumbbellConfig{Hosts: 1}) },
		label: func(k []string) (string, runobs.Fields) {
			return name + "_" + strings.Join(k, "_"),
				runobs.Fields{Variant: strings.Join(k, "/"), Seed: seed, Params: params}
		},
	}
}

// split cuts cells into consecutive groups of size each: one group per
// value of the outermost axis.
func split[C any](cells []C, size int) [][]C {
	var out [][]C
	for size > 0 && len(cells) >= size {
		out, cells = append(out, cells[:size]), cells[size:]
	}
	return out
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
func meterReordering(sc *runobs.Scope, f *tcp.Flow) *stats.ReorderMeter {
	meter := stats.NewReorderMeter(meterCap)
	f.Hooks = tcp.FlowHooks{OnDataRecv: func(seg tcp.Seg, _ sim.Time) {
		if !seg.Retx {
			meter.Observe(seg.Seq)
		}
	}}.Chain(f.Hooks)
	metrics.InstrumentReorder(sc.Sampler(), sc.Registry(), meter, "reorder")
	return meter
}
