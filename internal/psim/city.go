package psim

import (
	"fmt"
	"time"

	"tcppr/internal/invariant"
	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// CityRun configures one sharded city simulation: the topology, the shard
// count, and the two traffic tiers — web-like on/off sources inside each
// district (the bulk of the flow count, shard-local by construction) and
// long-lived flows between neighbouring districts that ride the backbone
// and, when the ring is cut, the cross-shard portals.
type CityRun struct {
	City   topo.CityConfig
	Shards int
	Seed   int64
	// Horizon is the simulated duration.
	Horizon time.Duration

	// SourcesPerHost is the number of on/off sources per host (each host
	// pairs with the next host of its district; default 1, -1 disables
	// the on/off tier entirely).
	SourcesPerHost int
	// ArrivalWindow spreads source start times as a Poisson process over
	// this span (default: a quarter of the horizon).
	ArrivalWindow time.Duration
	// OnOff shapes the district-local transfers (see workload.OnOffConfig).
	OnOff workload.OnOffConfig
	// BulkPerPair is the number of long-lived backbone flows per adjacent
	// district pair and direction (default 1; 0 disables with Districts=1).
	BulkPerPair int
	// BulkProtocol carries the backbone flows (default TCP-PR).
	BulkProtocol string
	// CheckInvariants arms a per-shard conformance checker: network-level
	// conservation and pool-ownership checks on every shard, plus the
	// per-variant flow rules for every shard-local flow (all on/off
	// transfers, and backbone flows whose endpoints share a shard). Flows
	// split across two shards get no per-flow rule chain — their hooks
	// would fire on two schedulers at once — so their coverage comes from
	// running the same seed at Shards=1, where every flow is local.
	CheckInvariants bool
}

func (c *CityRun) fill() {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Horizon == 0 {
		c.Horizon = 5 * time.Second
	}
	if c.SourcesPerHost == 0 {
		c.SourcesPerHost = 1
	}
	if c.ArrivalWindow == 0 {
		c.ArrivalWindow = c.Horizon / 4
	}
	if c.BulkPerPair == 0 && c.City.Districts > 1 {
		c.BulkPerPair = 1
	}
	if c.BulkProtocol == "" {
		c.BulkProtocol = workload.TCPPR
	}
}

// CityResult summarizes one city run.
type CityResult struct {
	Shards    int
	Lookahead time.Duration
	// SimSeconds is the simulated horizon; WallSeconds the elapsed real
	// time of the Run loop (instantiation excluded).
	SimSeconds  float64
	WallSeconds float64

	// Flows counts every connection created: on/off transfers (including
	// ones still active at the horizon) plus backbone flows.
	Flows int
	// Transfers counts on/off transfers that completed; TransferBytes
	// sums their delivered payload.
	Transfers     int
	TransferBytes int64
	// BulkBytes sums unique bytes delivered by the backbone flows.
	BulkBytes int64
	// Events is the total executed across all shard schedulers, Scheduler
	// their event-queue counters.
	Events    uint64
	Scheduler sim.Stats
	// Violations sums invariant violations across shards (0 when checking
	// is off).
	Violations uint64
}

// SimRate returns simulated seconds per wall second.
func (r CityResult) SimRate() float64 {
	if r.WallSeconds == 0 {
		return 0
	}
	return r.SimSeconds / r.WallSeconds
}

// onOffFlowStride is the flow-ID stride per on/off source: source i owns
// IDs (i+1)<<21 … (i+2)<<21-1, far above the backbone flows' small IDs.
const onOffFlowStride = 1 << 21

// BuildCity instantiates the city across shards and wires its workload.
// Construction is separate from Engine.Run so benchmarks can exclude it
// from the timed region.
func BuildCity(cfg CityRun) (*Engine, *CityState) {
	cfg.fill()
	bp := topo.NewCity(cfg.City)
	part := topo.PartitionBlueprint(bp, cfg.Shards, cfg.Seed)
	eng := NewEngine(bp, part, cfg.Seed)
	st := &CityState{cfg: cfg, eng: eng}

	var checkers []*invariant.Checker
	if cfg.CheckInvariants {
		checkers = make([]*invariant.Checker, len(eng.Shards()))
		for i, sh := range eng.Shards() {
			checkers[i] = invariant.New(sh.Sched)
			checkers[i].AttachNetwork(sh.Net)
		}
		st.checkers = checkers
	}

	// District-local on/off sources. Every stochastic stream is keyed by
	// the source's global index, never by its shard, so the traffic is
	// identical at every shard count.
	d, h, s := cfg.City.Districts, cfg.City.HostsPerDistrict, cfg.SourcesPerHost
	if s < 0 {
		s = 0
	}
	nSources := d * h * s
	var starts []sim.Time
	if nSources > 0 {
		starts = workload.PoissonStarts(nSources, 0,
			float64(nSources)/cfg.ArrivalWindow.Seconds(), sim.NewRand(sim.SplitSeed(cfg.Seed, 0x90155)))
	}
	gi := 0
	for di := 0; di < d; di++ {
		sh := eng.ShardOf(topo.CityRouter(di))
		onoff := cfg.OnOff
		if cfg.CheckInvariants {
			ck := checkers[sh.Index]
			onoff.OnFlow = ck.AttachFlow
		}
		for hi := 0; hi < h; hi++ {
			src := sh.Net.Node(topo.CityHost(di, hi))
			dst := sh.Net.Node(topo.CityHost(di, (hi+1)%h))
			fwd := routing.Static{Path: cityAccessPath(sh, di, hi, (hi+1)%h)}
			rev := routing.Static{Path: cityAccessPath(sh, di, (hi+1)%h, hi)}
			for si := 0; si < s; si++ {
				rng := sim.NewRand(sim.SplitSeed(cfg.Seed, int64(gi)))
				osrc := workload.NewOnOffSource(sh.Net, (gi+1)*onOffFlowStride, src, dst, fwd, rev, onoff, rng)
				osrc.Start(starts[gi])
				st.sources = append(st.sources, osrc)
				gi++
			}
		}
	}

	// Backbone bulk flows between adjacent districts, one set per ring
	// direction. Their routes may cross shard boundaries; Engine.Route
	// registers the portals.
	if d > 1 {
		id := 1
		pairs := [][2]int{}
		for di := 0; di < d; di++ {
			next := (di + 1) % d
			if d == 2 && di == 1 {
				next = 0 // two districts share one duplex pair
			}
			pairs = append(pairs, [2]int{di, next})
		}
		for _, pr := range pairs {
			for b := 0; b < cfg.BulkPerPair; b++ {
				srcName := topo.CityHost(pr[0], b%h)
				dstName := topo.CityHost(pr[1], b%h)
				fwdNames := []string{srcName, topo.CityRouter(pr[0]), topo.CityRouter(pr[1]), dstName}
				revNames := []string{dstName, topo.CityRouter(pr[1]), topo.CityRouter(pr[0]), srcName}
				fwd := eng.Route(id, fwdNames...)
				rev := eng.Route(id, revNames...)
				srcSh, srcNode := eng.Node(srcName)
				dstSh, dstNode := eng.Node(dstName)
				f := tcp.NewSplitFlow(srcSh.Net, dstSh.Net, id, srcNode, dstNode, fwd, rev)
				f.Attach(workload.Factory(cfg.BulkProtocol, workload.PRParams{}))
				f.Start(sim.Time(time.Duration(id) * time.Millisecond / 4))
				if cfg.CheckInvariants && srcSh == dstSh {
					checkers[srcSh.Index].AttachFlow(f, cfg.BulkProtocol)
				}
				st.bulk = append(st.bulk, f)
				id++
			}
		}
	}
	return eng, st
}

// cityAccessPath resolves the two-hop route host→router→host inside one
// district.
func cityAccessPath(sh *Shard, d, from, to int) []*netem.Link {
	a := sh.Net.FindLink(topo.CityHost(d, from), topo.CityRouter(d))
	b := sh.Net.FindLink(topo.CityRouter(d), topo.CityHost(d, to))
	if a == nil || b == nil {
		panic(fmt.Sprintf("psim: district %d access path %d->%d incomplete", d, from, to))
	}
	return []*netem.Link{a, b}
}

// CityState carries the workload handles read after the run.
type CityState struct {
	cfg      CityRun
	eng      *Engine
	sources  []*workload.OnOffSource
	bulk     []*tcp.Flow
	checkers []*invariant.Checker
}

// Finish runs end-of-run invariant checks and assembles the result.
func (st *CityState) Finish(wall time.Duration) CityResult {
	res := CityResult{
		Shards:      st.cfg.Shards,
		Lookahead:   st.eng.Lookahead(),
		SimSeconds:  st.cfg.Horizon.Seconds(),
		WallSeconds: wall.Seconds(),
		Events:      st.eng.Processed(),
		Scheduler:   st.eng.SchedulerStats(),
	}
	for _, s := range st.sources {
		res.Transfers += s.Transfers
		res.TransferBytes += s.BytesDelivered
		res.Flows += s.FlowsStarted()
	}
	for _, f := range st.bulk {
		res.BulkBytes += f.UniqueBytes()
		res.Flows++
	}
	for _, c := range st.checkers {
		c.Finish()
		res.Violations += uint64(c.Total())
	}
	return res
}
