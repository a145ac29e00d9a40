// Package metrics is the simulation-wide observability subsystem: a
// registry of named counter and gauge instruments, a virtual-clock
// Sampler that turns gauges into time series (cwnd trajectories, queue
// occupancy, RTO estimates — the raw material of the paper's Figures 2-6),
// and machine-readable exporters (TSV series dumps plus a per-run JSON
// Manifest) so experiment results can be tracked across revisions.
//
// Instruments are plain structs with no internal synchronization by
// default: one simulation runs on one sim.Scheduler in one goroutine, and
// observation must never perturb it. A registry created with NewShared
// guards every instrument operation with a mutex instead; experiment
// harnesses use that mode for run-level aggregate counters updated from
// the parallel worker pool.
package metrics

import (
	"fmt"
	"sync"
)

// Registry owns a flat namespace of instruments. Instruments are created
// through the registry (Counter, Gauge, GaugeFunc) and looked
// up by name; asking twice for the same name returns the same instrument,
// and asking for an existing name with a different kind panics — two
// subsystems silently sharing one instrument under different types is a
// wiring bug.
type Registry struct {
	mu    *sync.Mutex // nil in single-scheduler mode
	names []string    // insertion order, for deterministic export
	insts map[string]any
}

// New returns an unsynchronized registry for use inside one scheduler
// goroutine (the common case: one registry per simulation cell).
func New() *Registry {
	return &Registry{insts: make(map[string]any)}
}

// NewShared returns a mutex-guarded registry safe for concurrent use, for
// aggregate accounting across a parallel experiment pool.
func NewShared() *Registry {
	r := New()
	r.mu = &sync.Mutex{}
	return r
}

func (r *Registry) lock() {
	if r.mu != nil {
		r.mu.Lock()
	}
}

func (r *Registry) unlock() {
	if r.mu != nil {
		r.mu.Unlock()
	}
}

// get returns the named instrument, creating it with mk on first use.
// kind mismatches panic.
func get[T any](r *Registry, name string, mk func() T) T {
	r.lock()
	defer r.unlock()
	if in, ok := r.insts[name]; ok {
		t, ok := in.(T)
		if !ok {
			panic(fmt.Sprintf("metrics: instrument %q already registered as %T", name, in))
		}
		return t
	}
	t := mk()
	r.insts[name] = t
	r.names = append(r.names, name)
	return t
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return get(r, name, func() *Counter { return &Counter{reg: r} })
}

// Gauge returns the named settable gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return get(r, name, func() *Gauge { return &Gauge{reg: r} })
}

// GaugeFunc registers a gauge whose value is pulled from fn at read time.
// Registering a function over an existing settable gauge replaces its
// source; the instrument identity is preserved.
func (r *Registry) GaugeFunc(name string, fn func() float64) *Gauge {
	g := r.Gauge(name)
	r.lock()
	g.fn = fn
	r.unlock()
	return g
}

// Snapshot captures every instrument's current value, keyed by name.
// Maps marshal to JSON with sorted keys, so snapshots are deterministic.
type Snapshot struct {
	Counters map[string]uint64  `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// Snapshot reads every instrument once.
func (r *Registry) Snapshot() Snapshot {
	r.lock()
	names := append([]string(nil), r.names...)
	insts := make([]any, len(names))
	for i, n := range names {
		insts[i] = r.insts[n]
	}
	r.unlock()

	s := Snapshot{}
	for i, name := range names {
		switch in := insts[i].(type) {
		case *Counter:
			if s.Counters == nil {
				s.Counters = make(map[string]uint64)
			}
			s.Counters[name] = in.Value()
		case *Gauge:
			if s.Gauges == nil {
				s.Gauges = make(map[string]float64)
			}
			s.Gauges[name] = in.Value()
		}
	}
	return s
}

// Counter is a monotonically increasing event count.
type Counter struct {
	reg *Registry
	v   uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	c.reg.lock()
	c.v += n
	c.reg.unlock()
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	c.reg.lock()
	defer c.reg.unlock()
	return c.v
}

// Gauge is an instantaneous value pulled from the source function
// registered with GaugeFunc; a gauge without one reads its stored value.
type Gauge struct {
	reg *Registry
	v   float64
	fn  func() float64
}

// Value returns the current value, consulting the source function when
// one is registered.
func (g *Gauge) Value() float64 {
	g.reg.lock()
	fn := g.fn
	v := g.v
	g.reg.unlock()
	if fn != nil {
		return fn()
	}
	return v
}
