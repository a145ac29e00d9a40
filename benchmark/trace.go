package main

import (
	"math/bits"
	"sort"
	"time"

	"tcppr/internal/engineobs"
	"tcppr/internal/netem"
	"tcppr/internal/psim"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/workload"
)

// Layer names: the simulator's modules.
const (
	layerCore    = "core"
	layerTCP     = "tcp"
	layerRouting = "routing"
	layerNetem   = "netem"
)

// spanKey names one aggregated span: the layer it belongs to, what the
// span covers, the sender variant (sender spans only) and the cell it ran
// in.
type spanKey struct{ layer, span, variant, cell string }

// spanStat aggregates every occurrence of one span in memory: nothing is
// written until the benchmark ends.
type spanStat struct {
	count uint64
	total time.Duration
	max   time.Duration
	// hist[i] counts durations whose nanoseconds need i bits.
	hist [40]uint64
}

func (s *spanStat) add(d time.Duration) {
	s.count++
	s.total += d
	if d > s.max {
		s.max = d
	}
	b := bits.Len64(uint64(d))
	if b >= len(s.hist) {
		b = len(s.hist) - 1
	}
	s.hist[b]++
}

// Span names.
const (
	spanSender     = "sender"      // Start or OnAck, inclusive
	spanSenderSelf = "sender.self" // the same minus the transmit spans it caused
	spanTransmit   = "transmit"    // SenderEnv.Transmit: flow transmit, route, first-hop enqueue
	spanRoute      = "route"       // Router.Route, data and ACK direction
)

// tracer times the simulator's layers from outside, through the wrappers a
// tap installs. It is single-threaded like the sequential cells it traces;
// the sharded city is profiled by engineobs.Profiler instead.
type tracer struct {
	spans map[spanKey]*spanStat
	recvs []*recvTrace

	pending  []float64 // event-queue length samples
	profiler *engineobs.Profiler
}

func newTracer() *tracer { return &tracer{spans: map[spanKey]*spanStat{}} }

func (t *tracer) span(k spanKey) *spanStat {
	s := t.spans[k]
	if s == nil {
		s = &spanStat{}
		t.spans[k] = s
	}
	return s
}

// senderTrace is the per-flow state of the sender and transmit wrappers.
// The span pointers are resolved once, so the hot path does no map lookup.
type senderTrace struct {
	sender, self, transmit *spanStat
	inSender               bool
	child                  time.Duration
}

// recvTrace is one flow's data-segment arrival sequence, replayed into a
// fresh receiver after the run.
type recvTrace struct {
	flow     *tcp.Flow
	arrivals []tcp.Seg
}

// senderLayer puts TCP-PR in its own layer (package core) and every other
// variant in package tcp.
func senderLayer(proto string) string {
	if proto == workload.TCPPR {
		return layerCore
	}
	return layerTCP
}

// tap returns the attachments of the traced repetition.
func (t *tracer) tap() tap {
	return tap{
		wrapSender: func(c *cell, proto string, mk workload.SenderFactory) workload.SenderFactory {
			layer := senderLayer(proto)
			st := &senderTrace{
				sender:   t.span(spanKey{layer, spanSender, proto, c.label}),
				self:     t.span(spanKey{layer, spanSenderSelf, proto, c.label}),
				transmit: t.span(spanKey{layerNetem, spanTransmit, "", c.label}),
			}
			return func(env tcp.SenderEnv) tcp.Sender {
				send := env.Transmit
				env.Transmit = func(seg tcp.Seg) bool {
					t0 := time.Now()
					ok := send(seg)
					d := time.Since(t0)
					st.transmit.add(d)
					if st.inSender {
						st.child += d
					}
					return ok
				}
				return &tracedSender{inner: mk(env), st: st}
			}
		},
		wrapRouter: func(c *cell, r routing.Router) routing.Router {
			return &tracedRouter{inner: r, stat: t.span(spanKey{layerRouting, spanRoute, "", c.label})}
		},
		onFlow: func(c *cell, f *tcp.Flow, proto string) {
			rt := &recvTrace{flow: f}
			t.recvs = append(t.recvs, rt)
			f.Hooks = tcp.FlowHooks{
				OnDataRecv: func(seg tcp.Seg, _ sim.Time) { rt.arrivals = append(rt.arrivals, seg) },
			}.Chain(f.Hooks)
		},
		observe: func(c *cell) psim.EngineObserver {
			t.profiler = engineobs.NewProfiler(len(c.eng.Shards()))
			return &cityObserver{Profiler: t.profiler, t: t, c: c}
		},
	}
}

// tracedSender times a sender from outside: one span per Start and OnAck.
type tracedSender struct {
	inner tcp.Sender
	st    *senderTrace
}

func (s *tracedSender) Start() {
	t0 := s.enter()
	s.inner.Start()
	s.leave(t0)
}

func (s *tracedSender) OnAck(a tcp.Ack) {
	t0 := s.enter()
	s.inner.OnAck(a)
	s.leave(t0)
}

func (s *tracedSender) enter() time.Time {
	s.st.inSender = true
	s.st.child = 0
	return time.Now()
}

func (s *tracedSender) leave(t0 time.Time) {
	d := time.Since(t0)
	s.st.inSender = false
	s.st.sender.add(d)
	s.st.self.add(d - s.st.child)
}

// tracedRouter times Route.
type tracedRouter struct {
	inner routing.Router
	stat  *spanStat
}

func (r *tracedRouter) Route() []*netem.Link {
	t0 := time.Now()
	p := r.inner.Route()
	r.stat.add(time.Since(t0))
	return p
}

// cityObserver is the engine profiler plus an event-queue sample every
// simulated second. The engine calls it between windows on the
// coordinating goroutine, when no shard is running.
type cityObserver struct {
	*engineobs.Profiler
	t    *tracer
	c    *cell
	next sim.Time
}

func (o *cityObserver) WindowEnd(window int, end sim.Time, messages int, exchange time.Duration) {
	o.Profiler.WindowEnd(window, end, messages, exchange)
	if end >= o.next {
		o.t.samplePending(o.c)
		o.next = end + sim.Time(time.Second)
	}
}

// samplePending records the number of live events queued in the cell.
// Scheduler.Len is O(n), which is why only the traced repetition asks.
func (t *tracer) samplePending(c *cell) {
	n := 0
	for _, net := range c.nets() {
		n += net.Scheduler().Len()
	}
	t.pending = append(t.pending, float64(n))
}

// replayReceivers feeds every recorded arrival sequence into a fresh
// receiver and returns the segments replayed and the time it took: the
// receiver's cost with nothing else of the simulator running. mismatches
// counts replays that ended in another state than the live receiver did.
func (t *tracer) replayReceivers() (segs uint64, wall time.Duration, mismatches int) {
	for _, rt := range t.recvs {
		var rc tcp.Receiver
		t0 := time.Now()
		for _, seg := range rt.arrivals {
			rc.OnData(seg, 0)
		}
		wall += time.Since(t0)
		segs += uint64(len(rt.arrivals))
		live := rt.flow.Receiver()
		if rc.UniqueSegs != live.UniqueSegs || rc.DupSegs != live.DupSegs || rc.Reordered != live.Reordered {
			mismatches++
		}
	}
	return segs, wall, mismatches
}

// total sums the spans that match layer and span name (and variant, unless
// it is "") over cells.
func (t *tracer) total(layer, span, variant string) (count uint64, total time.Duration) {
	for k, s := range t.spans {
		if k.layer == layer && k.span == span && (variant == "" || k.variant == variant) {
			count += s.count
			total += s.total
		}
	}
	return count, total
}

// variants lists the sender variants that were traced, sorted.
func (t *tracer) variants() []string {
	seen := map[string]bool{}
	var out []string
	for k := range t.spans {
		if k.variant != "" && !seen[k.variant] {
			seen[k.variant] = true
			out = append(out, k.variant)
		}
	}
	sort.Strings(out)
	return out
}

// spanDoc is one aggregated span as written to the JSON document.
type spanDoc struct {
	Layer   string   `json:"layer"`
	Span    string   `json:"span"`
	Variant string   `json:"variant,omitempty"`
	Cell    string   `json:"cell"`
	Count   uint64   `json:"count"`
	TotalNs int64    `json:"total_ns"`
	MaxNs   int64    `json:"max_ns"`
	Log2Ns  []uint64 `json:"log2_ns_hist"`
}

func (t *tracer) docs() []spanDoc {
	out := make([]spanDoc, 0, len(t.spans))
	for k, s := range t.spans {
		hist := s.hist[:]
		for len(hist) > 0 && hist[len(hist)-1] == 0 {
			hist = hist[:len(hist)-1]
		}
		out = append(out, spanDoc{k.layer, k.span, k.variant, k.cell, s.count, int64(s.total), int64(s.max), append([]uint64(nil), hist...)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Cell != b.Cell {
			return a.Cell < b.Cell
		}
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.Span != b.Span {
			return a.Span < b.Span
		}
		return a.Variant < b.Variant
	})
	return out
}
