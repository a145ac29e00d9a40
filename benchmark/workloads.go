package main

import (
	"fmt"
	"time"

	"tcppr/internal/invariant"
	"tcppr/internal/netem"
	"tcppr/internal/psim"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// Seed-stream tags for sim.SplitSeed. Every stochastic input of a workload
// draws from its own stream of the one -seed, so two workloads (or two
// cells of one) never share a sequence.
const (
	streamStartJitter = 0x51a7
	streamFwdRoute    = 0x0f3d
	streamRevRoute    = 0x0e5b
	streamSource      = 0x50c0
	streamCity        = 0xc171
)

// tap is what a repetition attaches to the simulation it builds. The zero
// value attaches nothing: that is a timed repetition. Everything here is a
// seam the simulator already offers to outside code; the benchmark edits
// nothing under internal/.
type tap struct {
	// check attaches the invariant checker (verify repetition).
	check bool
	// wrapSender substitutes the sender factory of one long-lived flow.
	// The traced repetition times the sender through it; the tests break
	// a sender through it. Flows an OnOffSource or BuildCity opens attach
	// their senders themselves and never pass here.
	wrapSender func(c *cell, proto string, mk workload.SenderFactory) workload.SenderFactory
	// wrapRouter substitutes a router of a bench-built flow or source.
	wrapRouter func(c *cell, r routing.Router) routing.Router
	// onFlow sees every bench-built flow after its sender is attached and
	// before it starts, including each on/off transfer.
	onFlow func(c *cell, f *tcp.Flow, proto string)
	// observe returns the observer to attach to a city cell's engine.
	observe func(c *cell) psim.EngineObserver
}

// cell is one independent simulation of a workload: its own scheduler (or
// sharded engine), network and traffic. Only reorder-multipath has more
// than one; they run one after another.
type cell struct {
	label   string
	horizon sim.Time

	// Sequential cells.
	sched   *sim.Scheduler
	net     *netem.Network
	flows   []*workload.Flow
	sources []*workload.OnOffSource
	checker *invariant.Checker
	// City cells.
	eng  *psim.Engine
	city *psim.CityState
}

// run advances the cell to t.
func (c *cell) run(t sim.Time) {
	if c.eng != nil {
		c.eng.Run(t)
		return
	}
	c.sched.RunUntil(t)
}

// nets returns the cell's networks in a fixed order (one per shard).
func (c *cell) nets() []*netem.Network {
	if c.eng == nil {
		return []*netem.Network{c.net}
	}
	out := make([]*netem.Network, 0, len(c.eng.Shards()))
	for _, sh := range c.eng.Shards() {
		out = append(out, sh.Net)
	}
	return out
}

// workloadDef is one benchmark workload. Horizons were sized once, at the
// seed commit on two cores, so that a timed repetition takes about two
// seconds, and are frozen: changing one changes every number.
type workloadDef struct {
	name string
	// why is repeated in BENCHMARK.json; a test keeps the two equal.
	why string
	// build constructs every cell, ready to run. scale shortens horizons
	// (tests only; the benchmark runs at 1).
	build func(seed int64, scale float64, tp tap) []*cell
	// perCellGoodput reports goodput_mbps as the mean over cells, not the
	// sum: the cells are alternatives, not traffic sharing one network.
	perCellGoodput bool
	// shape checks the paper's qualitative result on the per-cell goodput
	// and returns what is wrong, or "".
	shape func(cellGoodput map[string]float64) string
	// bare builds the workload's topology with no traffic on it and
	// returns a forward path of it, for the link-hop kernel.
	bare func() (*netem.Network, []*netem.Link)
	// control names the workload this one is compared against in its
	// traced run ("" for none): same inputs, one shard.
	control string
}

func scaled(d time.Duration, scale float64) sim.Time {
	return sim.Time(float64(d) * scale)
}

var workloads = []workloadDef{
	{
		// Steady-state per-packet path (paper Fig. 1/2). Eight long-lived
		// flows keep the bottleneck full, there is no reordering, so the
		// scheduler heap, the link hops and the senders' ACK processing do
		// all the work while receiver and router stay on their in-order
		// fast paths. A hot-path change (single PR timer, typed heap, zero
		// allocs) must show here first.
		name:  "bulk-dumbbell",
		why:   "8 long-lived TCP-PR/TCP-SACK flows on a dumbbell, no reordering: scheduler heap, link hops and sender ACK processing in steady state",
		build: buildBulkDumbbell,
		bare:  bareDumbbell,
	},
	{
		// The paper's subject (Fig. 5/6). Same senders and receiver as
		// above, used differently: out-of-order arrivals, SACK and DSACK
		// blocks, scoreboards, the PR memorize list, per-packet epsilon
		// routing. At eps=0 TCP-PR carries most packets; at eps=4 all six
		// variants work about equally. A sender or receiver change that
		// helps in-order traffic and hurts reordered traffic shows here.
		name:  "reorder-multipath",
		why:   "the Fig. 6 variants at eps 0 and 4 over 3-path epsilon routing, one flow per cell, 11 cells: out-of-order arrivals, SACK/DSACK, scoreboards, per-packet routing",
		build: buildReorderMultipath,
		bare:  bareMultipath,

		perCellGoodput: true,
		shape:          multipathShape,
	},
	{
		// Connection set-up and tear-down, slow start, handler
		// registration and per-flow allocation dominate: tens of thousands
		// of short transfers of a few packets each. This is the "writes
		// beside reads" case: pre-allocating per-flow state to speed bulk
		// flows costs here.
		name:  "web-churn",
		why:   "64 on/off sources opening short Pareto-sized transfers on a dumbbell: connection set-up, slow start and per-flow allocation dominate",
		build: buildWebChurn,
		bare:  bareDumbbell,
	},
	{
		// The ROADMAP's city figure on the sequential path: one window, no
		// barrier, no exchange. It is the control for city-4shard.
		name:  "city-1shard",
		why:   "8x8 city (on/off sources per district plus loss-free backbone flows) on one shard: the sequential engine, control for city-4shard",
		build: func(seed int64, scale float64, tp tap) []*cell { return buildCity(1, seed, scale, tp) },
		bare:  bareCity,
	},
	{
		// Same inputs, four shards: only psim differs. Per-window
		// goroutines, barrier wait, exchange sort and per-crossing
		// allocation show here and must leave city-1shard unmoved.
		name:  "city-4shard",
		why:   "the same city on four shards: per-window goroutines, barrier wait, exchange sort and per-crossing allocation are the only difference",
		build: func(seed int64, scale float64, tp tap) []*cell { return buildCity(4, seed, scale, tp) },
		bare:  bareCity,

		control: "city-1shard",
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Frozen workload sizes.
const (
	dumbbellHosts   = 8
	bulkHorizon     = 300 * time.Second
	bulkStartSpread = 5 * time.Second

	multipathPaths   = 3
	multipathDelay   = 10 * time.Millisecond
	multipathHorizon = 60 * time.Second

	churnSourcesPerHost = 8
	churnHorizon        = 240 * time.Second
	churnThink          = 100 * time.Millisecond
	churnStartGap       = 10 * time.Millisecond

	cityDistricts = 8
	cityHosts     = 8
	cityHorizon   = 6 * time.Second
	// With the city's default links (100 Mbit/s access, 100-packet queues)
	// the eight backbone flows carry 96 % of the bytes and spend the run in
	// loss recovery, so which of them lose decides every per-packet number:
	// across seeds goodput scatters by 7 % and allocs/pkt by 16 %. At half
	// the access rate and four times the queue they fill their links
	// without loss and the scatter falls under 1 %; the engine work per
	// packet (windows, barriers, crossings) is the same.
	cityAccessMbps = 50
	cityQueue      = 400
)

// multipathEpsilons are the two routing regimes of reorder-multipath:
// eps=0 spreads packets evenly over all paths (persistent reordering),
// eps=4 sends most of them down the shortest.
var multipathEpsilons = []float64{0, 4}

// multipathShape is the paper's Fig. 6 result at full multipath: TCP-PR
// has the highest goodput and DSACK-NM, which never adapts its duplicate
// threshold, collapses to under a quarter of it.
func multipathShape(goodput map[string]float64) string {
	pr := goodput[workload.TCPPR+"/eps=0"]
	for _, proto := range workload.Fig6Protocols() {
		if g := goodput[proto+"/eps=0"]; g > pr {
			return fmt.Sprintf("%s (%.2f Mbps) beats TCP-PR (%.2f Mbps) at eps=0", proto, g, pr)
		}
	}
	if nm := goodput[workload.DSACKNM+"/eps=0"]; nm >= pr/4 {
		return fmt.Sprintf("DSACK-NM delivers %.2f Mbps at eps=0, not under a quarter of TCP-PR's %.2f", nm, pr)
	}
	return ""
}

// attachFlow wires one long-lived flow the way every bench-built workload
// does: routers and sender through the tap, checker and hooks after.
func attachFlow(c *cell, tp tap, id int, src, dst *netem.Node, fwd, rev routing.Router, proto string, startAt sim.Time) {
	mk := workload.Factory(proto, workload.PRParams{})
	if tp.wrapRouter != nil {
		fwd, rev = tp.wrapRouter(c, fwd), tp.wrapRouter(c, rev)
	}
	if tp.wrapSender != nil {
		mk = tp.wrapSender(c, proto, mk)
	}
	f := tcp.NewFlow(c.net, id, src, dst, fwd, rev)
	f.Attach(mk)
	c.observeFlow(tp, f, proto)
	f.Start(startAt)
	c.flows = append(c.flows, &workload.Flow{Flow: f, Protocol: proto})
}

// observeFlow chains the checker and the tap's flow hook onto a flow whose
// sender is attached and which has not started.
func (c *cell) observeFlow(tp tap, f *tcp.Flow, proto string) {
	if c.checker != nil {
		c.checker.AttachFlow(f, proto)
	}
	if tp.onFlow != nil {
		tp.onFlow(c, f, proto)
	}
}

// newCell starts a sequential cell on a fresh scheduler.
func newCell(label string, horizon sim.Time) *cell {
	return &cell{label: label, horizon: horizon, sched: sim.NewScheduler()}
}

// armChecker attaches the invariant checker once the topology exists.
func (c *cell) armChecker(tp tap) {
	if tp.check {
		c.checker = invariant.New(c.sched)
		c.checker.SetMaxRecord(1 << 20)
		c.checker.AttachNetwork(c.net)
	}
}

func buildBulkDumbbell(seed int64, scale float64, tp tap) []*cell {
	c := newCell("dumbbell", scaled(bulkHorizon, scale))
	d := topo.NewDumbbell(c.sched, topo.DumbbellConfig{Hosts: dumbbellHosts})
	c.net = d.Net
	c.armChecker(tp)
	// The dumbbell itself draws no random numbers; the seed jitters each
	// flow's start inside its stagger slot, which moves every later
	// window-versus-queue interleaving.
	rng := sim.NewRand(sim.SplitSeed(seed, streamStartJitter))
	starts := workload.StaggeredStarts(dumbbellHosts, 0, bulkStartSpread)
	slot := bulkStartSpread / dumbbellHosts
	for i := 0; i < dumbbellHosts; i++ {
		proto := workload.TCPPR
		if i%2 == 1 {
			proto = workload.TCPSACK
		}
		at := starts[i] + time.Duration(rng.Int63n(int64(slot)))
		attachFlow(c, tp, i+1, d.Src(i), d.Dst(i),
			routing.Static{Path: d.FwdPath(i)}, routing.Static{Path: d.RevPath(i)}, proto, at)
	}
	return []*cell{c}
}

// multipathCell is one (variant, eps) pair of reorder-multipath.
type multipathCell struct {
	proto string
	eps   float64
}

// multipathCells lists the paper's six Fig. 6 variants in both regimes,
// less TD-FR at eps=0. That one cell's goodput is bimodal across seeds
// (2.5 to 14.5 Mbit/s over 60 simulated seconds; every other cell stays
// within a tenth of its mean), which alone would put a 6 % across-seed
// scatter on sim_rate and goodput_mbps. TD-FR still runs, at eps=4.
func multipathCells() []multipathCell {
	var out []multipathCell
	for _, eps := range multipathEpsilons {
		for _, proto := range workload.Fig6Protocols() {
			if proto != workload.TDFR || eps != 0 {
				out = append(out, multipathCell{proto, eps})
			}
		}
	}
	return out
}

func buildReorderMultipath(seed int64, scale float64, tp tap) []*cell {
	var cells []*cell
	for i, mc := range multipathCells() {
		c := newCell(fmt.Sprintf("%s/eps=%g", mc.proto, mc.eps), scaled(multipathHorizon, scale))
		m := topo.NewMultipath(c.sched, multipathPaths, multipathDelay)
		c.net = m.Net
		c.armChecker(tp)
		stream := int64(i) << 16
		fwd := routing.NewEpsilon(m.FwdPaths, mc.eps, sim.NewRand(sim.SplitSeed(seed, streamFwdRoute+stream)))
		rev := routing.NewEpsilon(m.RevPaths, mc.eps, sim.NewRand(sim.SplitSeed(seed, streamRevRoute+stream)))
		attachFlow(c, tp, 1, m.Src, m.Dst, fwd, rev, mc.proto, 0)
		cells = append(cells, c)
	}
	return cells
}

func buildWebChurn(seed int64, scale float64, tp tap) []*cell {
	c := newCell("dumbbell", scaled(churnHorizon, scale))
	d := topo.NewDumbbell(c.sched, topo.DumbbellConfig{Hosts: dumbbellHosts})
	c.net = d.Net
	c.armChecker(tp)
	n := 0
	for h := 0; h < dumbbellHosts; h++ {
		var fwd, rev routing.Router = routing.Static{Path: d.FwdPath(h)}, routing.Static{Path: d.RevPath(h)}
		if tp.wrapRouter != nil {
			fwd, rev = tp.wrapRouter(c, fwd), tp.wrapRouter(c, rev)
		}
		for s := 0; s < churnSourcesPerHost; s++ {
			cfg := workload.OnOffConfig{MeanThink: churnThink, Protocol: workload.TCPPR}
			if n%2 == 1 {
				cfg.Protocol = workload.TCPSACK
			}
			if c.checker != nil || tp.onFlow != nil {
				cfg.OnFlow = func(f *tcp.Flow, proto string) { c.observeFlow(tp, f, proto) }
			}
			rng := sim.NewRand(sim.SplitSeed(seed, streamSource+int64(n)<<16))
			src := workload.NewOnOffSource(c.net, (n+1)<<21, d.Src(h), d.Dst(h), fwd, rev, cfg, rng)
			src.Start(sim.Time(n) * churnStartGap)
			c.sources = append(c.sources, src)
			n++
		}
	}
	return []*cell{c}
}

func cityRun(shards int, seed int64, scale float64) psim.CityRun {
	return psim.CityRun{
		City: topo.CityConfig{Districts: cityDistricts, HostsPerDistrict: cityHosts,
			AccessBW: topo.Mbps(cityAccessMbps), Queue: cityQueue},
		Shards:  shards,
		Seed:    sim.SplitSeed(seed, streamCity),
		Horizon: scaled(cityHorizon, scale),
	}
}

// buildCity builds the sharded city. BuildCity attaches every sender and
// source itself, so nothing of the tap but the checker and the engine
// observer reaches inside: city layer numbers are the engine profile plus
// the counters.
func buildCity(shards int, seed int64, scale float64, tp tap) []*cell {
	cfg := cityRun(shards, seed, scale)
	cfg.CheckInvariants = tp.check
	c := &cell{label: fmt.Sprintf("city/%dshard", shards), horizon: cfg.Horizon}
	c.eng, c.city = psim.BuildCity(cfg)
	if tp.observe != nil {
		c.eng.SetObserver(tp.observe(c))
	}
	return []*cell{c}
}

func bareDumbbell() (*netem.Network, []*netem.Link) {
	d := topo.NewDumbbell(sim.NewScheduler(), topo.DumbbellConfig{Hosts: dumbbellHosts})
	return d.Net, d.FwdPath(0)
}

// bareMultipath returns the middle path: three hops, the mean over the
// two-, three- and four-hop paths eps=0 spreads packets over.
func bareMultipath() (*netem.Network, []*netem.Link) {
	m := topo.NewMultipath(sim.NewScheduler(), multipathPaths, multipathDelay)
	return m.Net, m.FwdPaths[1]
}

// bareCity returns a district-local path, host to router to host: the
// route every on/off transfer of the city takes.
func bareCity() (*netem.Network, []*netem.Link) {
	bp := topo.NewCity(cityRun(1, 0, 1).City)
	eng := psim.NewEngine(bp, topo.PartitionBlueprint(bp, 1, 0), 0)
	n := eng.Shards()[0].Net
	return n, []*netem.Link{
		n.FindLink(topo.CityHost(0, 0), topo.CityRouter(0)),
		n.FindLink(topo.CityRouter(0), topo.CityHost(0, 1)),
	}
}
