// Package psim is the sharded conservative parallel simulation engine: it
// cuts a topology blueprint into shards, runs each shard's event loop on
// its own sim.Scheduler (with its own event and packet pools), and couples
// the shards through timestamped packet messages exchanged at barrier
// windows.
//
// # Synchronization model
//
// The engine uses a conservative barrier-window scheme. Let W be the
// lookahead: the minimum propagation delay over the cut (the links whose
// endpoints landed on different shards). Time is divided into aligned
// windows of width W, and every shard runs window k — the half-open event
// interval (kW, (k+1)W] — to completion before any shard starts window
// k+1. The scheme is safe because a packet crossing a boundary during
// window k cannot affect the destination shard before (k+1)W: the packet
// finishes serializing on the source shard at some t ≤ (k+1)W, and its
// arrival message is stamped t plus the cut link's propagation delay,
// which is at least W. Every message found at a barrier is therefore in
// the strict future of the next window's start, and no shard ever
// receives an event in its past. Shards with no cut links at all (or a
// single-shard partition) run to the horizon in one window.
//
// # Determinism
//
// A run is reproducible for a fixed (seed, shard count): each shard's
// event loop is single-threaded and deterministic, and the barrier
// injects messages in a canonical order — sorted by (timestamp, cut-link
// enqueue time, source shard, emission order) — so same-timestamp
// arrivals tie-break identically on every run. A single-shard run is
// byte-for-byte the sequential simulation: no cuts, no portals, one
// scheduler, and the windowed RunUntil sweep executes exactly the event
// sequence a plain Run would. Across shard counts the engine preserves
// per-flow dynamics, not just aggregate traffic: the enqueue-time sort
// key replicates the sequential scheduler's implicit insertion-order
// tie-break for same-timestamp arrivals (a link schedules a delivery
// when it accepts the packet), so cross-boundary packets contend for
// entry-node queues in the same order the 1-shard run resolves them —
// even on a perfectly symmetric topology where such timestamp
// collisions are systematic. The residual ambiguity falls back to the
// (source shard, emission order) tail: a cut-link enqueue tying another
// at the same instant, or a cross arrival tying an event whose
// scheduler insertion happened mid-window on the destination shard —
// information no barrier exchange can carry. The conformance tests pin
// exact per-flow stat equality across shard counts for the default
// (symmetric) city workload, where the residual cases do not arise.
// Workloads keep their stochastic draws shard-independent by
// seeding every flow-level RNG from sim.SplitSeed(seed,
// globalFlowIndex) — never from anything shard-relative.
package psim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/topo"
)

// Shard is one partition of the simulation: a scheduler, the shard's
// slice of the topology, and a SplitSeed-derived RNG stream for
// shard-local draws (link impairments and the like — never for per-flow
// workload draws, which must be keyed by global flow index to stay
// shard-count-independent).
type Shard struct {
	Index int
	Sched *sim.Scheduler
	Net   *netem.Network
	Rng   *rand.Rand

	inbox  []*message // next windows' arrivals, owned by the engine at barriers
	outbox []*message // this window's cross-boundary emissions
}

// message is one packet crossing a shard boundary: the payload and wire
// metadata captured at the portal, stamped with its arrival time on the
// destination shard.
type message struct {
	at       sim.Time
	enq      sim.Time // when the cut link accepted the packet (see exchange)
	flow     int
	size     int
	payload  any
	entry    *netem.Node   // node the packet materializes at
	route    []*netem.Link // remaining source route from entry (may be empty)
	dst      *Shard
	srcShard int
	seq      int // emission order within the source shard's window
}

// crossing is the portal state for one cut link: the egress stub on the
// source shard and the entry point on the destination shard.
type crossing struct {
	egress *netem.Link // From -> portal node, delay 0, original bandwidth/queue
	portal *netem.Node
	delay  time.Duration
	src    *Shard
	dst    *Shard
	entry  *netem.Node // the cut link's To node, on the destination shard
}

// Engine holds the sharded instantiation of one blueprint.
type Engine struct {
	bp        topo.Blueprint
	part      topo.Partition
	shards    []*Shard
	crossings map[linkName]*crossing
	window    time.Duration

	obs      EngineObserver
	obsTimes []shardTiming // scratch, one entry per shard, reused every window
}

// EngineObserver receives wall-clock telemetry from the barrier-window run
// loop. The engine calls it only between windows, on the coordinating
// goroutine, so implementations need no internal locking against the
// simulation itself (only against their own readers). When no observer is
// attached the loop takes no timestamps at all — the event hot path is
// identical to an unobserved run.
//
// internal/engineobs implements this interface structurally (its Profiler
// and Heartbeat use only sim and time types), so psim carries no
// dependency on the telemetry layer.
type EngineObserver interface {
	// WindowStart announces the window about to run: its index and the
	// half-open virtual interval (start, end].
	WindowStart(window int, start, end sim.Time)
	// ShardWindow reports one shard's completed window: events executed,
	// outbox size (cross-boundary emissions awaiting exchange), wall time
	// spent executing events, and wall time spent waiting at the barrier
	// for the slowest shard.
	ShardWindow(shard, window int, events uint64, outbox int, execute, wait time.Duration)
	// WindowEnd closes the window after the barrier exchange: the number
	// of cross-boundary messages routed and the exchange's wall time.
	WindowEnd(window int, end sim.Time, messages int, exchange time.Duration)
}

// shardTiming is the per-shard scratch the run loop fills while an
// observer is attached. Each shard goroutine writes only its own entry;
// wg.Wait orders those writes before the coordinator reads them.
type shardTiming struct {
	start, finish time.Time
	events        uint64
}

// SetObserver attaches (or, with nil, detaches) a telemetry observer. Call
// it before Run; the engine does not synchronize against mid-run swaps.
func (e *Engine) SetObserver(obs EngineObserver) {
	e.obs = obs
	if obs != nil && e.obsTimes == nil {
		e.obsTimes = make([]shardTiming, len(e.shards))
	}
}

type linkName struct{ from, to string }

// NewEngine instantiates the blueprint across the partition's shards:
// every shard gets its own scheduler, network, nodes, and intra-shard
// links; every cut link becomes an egress stub (same bandwidth and queue
// capacity, zero delay, ending at a portal node) on its source shard,
// with the propagation delay re-applied to the crossing messages.
// Keeping serialization and queueing on the source shard preserves the
// cut link's contention behaviour; only the propagation flight time is
// replaced by the message timestamp.
func NewEngine(bp topo.Blueprint, part topo.Partition, seed int64) *Engine {
	e := &Engine{
		bp:        bp,
		part:      part,
		crossings: make(map[linkName]*crossing),
		window:    part.Lookahead(),
	}
	for i := 0; i < part.Shards; i++ {
		sched := sim.NewScheduler()
		sh := &Shard{
			Index: i,
			Sched: sched,
			Net:   netem.NewNetwork(sched),
			Rng:   sim.NewRand(sim.SplitSeed(seed, int64(i)+(1<<40))),
		}
		for _, name := range part.Nodes(i) {
			sh.Net.Node(name)
		}
		e.shards = append(e.shards, sh)
	}
	for i, l := range bp.Links {
		fs, ts := part.ShardOf(l.From), part.ShardOf(l.To)
		if fs == ts {
			e.shards[fs].Net.AddLink(l.From, l.To, l.BW, l.Delay, l.Queue)
			continue
		}
		src, dst := e.shards[fs], e.shards[ts]
		portalName := fmt.Sprintf("…%s>%s", l.From, l.To)
		c := &crossing{
			egress: src.Net.AddLink(l.From, portalName, l.BW, 0, l.Queue),
			delay:  l.Delay,
			src:    src,
			dst:    dst,
			entry:  dst.Net.Node(l.To),
		}
		c.portal = src.Net.Node(portalName)
		e.crossings[linkName{l.From, l.To}] = c
		_ = i
	}
	return e
}

// Shards returns the engine's shards, in index order.
func (e *Engine) Shards() []*Shard { return e.shards }

// ShardOf returns the shard hosting the named blueprint node.
func (e *Engine) ShardOf(name string) *Shard { return e.shards[e.part.ShardOf(name)] }

// Node resolves a blueprint node to its shard and netem node.
func (e *Engine) Node(name string) (*Shard, *netem.Node) {
	sh := e.ShardOf(name)
	return sh, sh.Net.Node(name)
}

// Lookahead returns the barrier window width (zero when the partition has
// no cuts and the shards are independent).
func (e *Engine) Lookahead() time.Duration { return e.window }

// Route builds the source route for one flow through the named nodes,
// registering a portal handler for every shard boundary the route
// crosses. The returned router carries the first shard's segment (ending
// at an egress stub if the first hop off-shard comes before the final
// node); the remaining segments are delivered through the crossing
// messages. Each (flow, cut link) pair may be routed at most once — the
// portal demultiplexes by flow ID.
func (e *Engine) Route(flowID int, names ...string) routing.Router {
	if len(names) < 2 {
		panic("psim: Route needs at least two nodes")
	}
	segs, crossings := e.segments(names)
	// Register crossings back to front so each handler captures its
	// downstream segment.
	for i := len(crossings) - 1; i >= 0; i-- {
		c := crossings[i]
		m := &message{
			flow:  flowID,
			entry: c.entry,
			route: segs[i+1],
			dst:   c.dst,
		}
		src := c.src
		delay := c.delay
		c.portal.Handle(flowID, func(p *netem.Packet) {
			src.outbox = append(src.outbox, &message{
				at:       src.Sched.Now() + delay,
				enq:      p.EnqueuedAt(),
				flow:     m.flow,
				size:     p.Size,
				payload:  p.Payload,
				entry:    m.entry,
				route:    m.route,
				dst:      m.dst,
				srcShard: src.Index,
				seq:      len(src.outbox),
			})
		})
	}
	return routing.Static{Path: segs[0]}
}

// segments splits a node-name route at shard boundaries: segment k is the
// contiguous link run on one shard (ending with the egress stub when the
// route continues on another shard), and crossings[k] is the boundary
// between segments k and k+1.
func (e *Engine) segments(names []string) (segs [][]*netem.Link, crossings []*crossing) {
	var cur []*netem.Link
	for i := 0; i+1 < len(names); i++ {
		from, to := names[i], names[i+1]
		if c, cut := e.crossings[linkName{from, to}]; cut {
			segs = append(segs, append(cur, c.egress))
			crossings = append(crossings, c)
			cur = nil
			continue
		}
		sh := e.ShardOf(from)
		l := sh.Net.FindLink(from, to)
		if l == nil {
			panic(fmt.Sprintf("psim: no link %s->%s on shard %d", from, to, sh.Index))
		}
		cur = append(cur, l)
	}
	segs = append(segs, cur)
	return segs, crossings
}

// injectMsg materializes one crossing message on its destination shard:
// packets with a remaining route are sent down it (paying the remaining
// links' serialization and queueing); packets that crossed on their final
// hop are handed straight to the entry node's flow handler.
func injectMsg(arg any) {
	m := arg.(*message)
	p := m.dst.Net.NewPacket()
	p.Flow = m.flow
	p.Size = m.size
	p.Payload = m.payload
	if len(m.route) > 0 {
		p.Path = m.route
		m.dst.Net.Send(p)
		return
	}
	m.dst.Net.Inject(m.entry, p)
}

// Run drives every shard to the horizon in lockstep barrier windows. With
// more than one shard the windows execute on one goroutine per shard;
// invariant checkers, workload state, and anything else wired to a single
// shard stays single-threaded because barriers fully serialize the
// windows.
func (e *Engine) Run(horizon sim.Time) {
	w := sim.Time(e.window)
	if w == 0 || len(e.shards) == 1 {
		w = horizon
	}
	window := 0
	for start := sim.Time(0); start < horizon; window++ {
		end := start + w
		if end > horizon {
			end = horizon
		}
		if e.obs != nil {
			e.obs.WindowStart(window, start, end)
		}
		if len(e.shards) == 1 {
			if e.obs == nil {
				e.shards[0].runWindow(end)
			} else {
				e.shards[0].runWindowTimed(end, &e.obsTimes[0])
			}
		} else {
			var wg sync.WaitGroup
			for i, sh := range e.shards {
				wg.Add(1)
				if e.obs == nil {
					go func(sh *Shard) {
						defer wg.Done()
						sh.runWindow(end)
					}(sh)
					continue
				}
				go func(sh *Shard, t *shardTiming) {
					defer wg.Done()
					sh.runWindowTimed(end, t)
				}(sh, &e.obsTimes[i])
			}
			wg.Wait()
		}
		var messages int
		var exchStart time.Time
		if e.obs != nil {
			// The barrier clears when the slowest shard finishes; every
			// other shard's wait is the gap back to its own finish.
			barrier := e.obsTimes[0].finish
			for i := 1; i < len(e.shards); i++ {
				if e.obsTimes[i].finish.After(barrier) {
					barrier = e.obsTimes[i].finish
				}
			}
			for i, sh := range e.shards {
				t := &e.obsTimes[i]
				e.obs.ShardWindow(i, window, t.events, len(sh.outbox),
					t.finish.Sub(t.start), barrier.Sub(t.finish))
				messages += len(sh.outbox)
			}
			exchStart = time.Now()
		}
		e.exchange()
		if e.obs != nil {
			e.obs.WindowEnd(window, end, messages, time.Since(exchStart))
		}
		start = end
	}
}

// runWindow schedules the window's pending arrivals and executes every
// event up to the window end. Arrival timestamps are never in the past:
// each is at least one lookahead beyond the window in which its packet
// crossed the boundary.
func (sh *Shard) runWindow(end sim.Time) {
	for _, m := range sh.inbox {
		sh.Sched.AtFunc(m.at, injectMsg, m)
	}
	sh.inbox = sh.inbox[:0]
	sh.Sched.RunUntil(end)
}

// runWindowTimed is runWindow bracketed by the observer's wall-clock
// bookkeeping: its own start/finish stamps (goroutine scheduling delay
// lands in the barrier wait of whichever shard started late, not in its
// execute time) and the events-executed delta.
func (sh *Shard) runWindowTimed(end sim.Time, t *shardTiming) {
	before := sh.Sched.Processed()
	t.start = time.Now()
	sh.runWindow(end)
	t.finish = time.Now()
	t.events = sh.Sched.Processed() - before
}

// exchange routes every shard's outbox to the destination inboxes in
// canonical order: (arrival time, cut-link enqueue time, source shard,
// emission order). The enqueue-time key replicates the sequential
// scheduler's implicit tie-break: a link schedules a packet's delivery
// event at the moment it accepts the packet, so when two cross-boundary
// packets from different shards arrive at the same instant, the
// sequential run executes first whichever was enqueued on its cut link
// first. Sorting arrivals the same way keeps same-timestamp queue
// contention at the entry node identical to the 1-shard run; the
// (source shard, emission order) tail pins reproducibility for the
// residual case of ties in the enqueue times themselves.
func (e *Engine) exchange() {
	for _, sh := range e.shards {
		for _, m := range sh.outbox {
			m.dst.inbox = append(m.dst.inbox, m)
		}
		sh.outbox = sh.outbox[:0]
	}
	for _, sh := range e.shards {
		in := sh.inbox
		sort.SliceStable(in, func(i, j int) bool {
			if in[i].at != in[j].at {
				return in[i].at < in[j].at
			}
			if in[i].enq != in[j].enq {
				return in[i].enq < in[j].enq
			}
			if in[i].srcShard != in[j].srcShard {
				return in[i].srcShard < in[j].srcShard
			}
			return in[i].seq < in[j].seq
		})
	}
}

// SchedulerStats totals the shards' event-queue counters; MaxHeapLen is
// that of the deepest shard heap.
func (e *Engine) SchedulerStats() sim.Stats {
	var t sim.Stats
	for _, sh := range e.shards {
		t.Add(sh.Sched.Stats(), sim.Stats{})
	}
	return t
}

// Processed sums the events executed across all shards.
func (e *Engine) Processed() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.Sched.Processed()
	}
	return n
}
