package metrics

import (
	"fmt"
	"io"
	"time"

	"tcppr/internal/sim"
)

// DefaultInterval is the sampling cadence used when none is given: 100 ms
// of virtual time, fine enough to resolve cwnd sawtooths at the paper's
// RTTs while adding only a handful of events per simulated second.
const DefaultInterval = 100 * time.Millisecond

// DefaultSeriesCap bounds each series at 4096 points (~7 simulated
// minutes at the default cadence) so long runs stay at a fixed memory
// footprint.
const DefaultSeriesCap = 4096

// Sampler periodically reads a set of gauge sources on the virtual clock
// and appends each value to a per-source ring-buffer Series. Sampling is
// purely observational: the sampler schedules its own repeating event but
// never mutates protocol or network state, so attaching it must not (and
// does not — see the experiments determinism test) change simulation
// outcomes.
type Sampler struct {
	sched    *sim.Scheduler
	interval time.Duration
	cap      int

	series  []*Series
	sources []func() float64

	timer   *sim.Timer
	started bool
	stopped bool
}

// NewSampler creates a sampler on the given scheduler. interval <= 0
// selects DefaultInterval; seriesCap <= 0 selects DefaultSeriesCap.
func NewSampler(sched *sim.Scheduler, interval time.Duration, seriesCap int) *Sampler {
	if sched == nil {
		panic("metrics: NewSampler requires a scheduler")
	}
	if interval <= 0 {
		interval = DefaultInterval
	}
	if seriesCap <= 0 {
		seriesCap = DefaultSeriesCap
	}
	sp := &Sampler{sched: sched, interval: interval, cap: seriesCap}
	sp.timer = sim.NewTimer(sched, sp.tick)
	return sp
}

// Interval returns the sampling cadence.
func (sp *Sampler) Interval() time.Duration { return sp.interval }

// Watch registers a source function under a series name and returns the
// series. Sources registered after Start are picked up from the next
// tick. Watching the same name twice panics — two writers interleaving
// into one series would corrupt it.
func (sp *Sampler) Watch(name string, fn func() float64) *Series {
	if fn == nil {
		panic(fmt.Sprintf("metrics: Watch(%q) requires a source function", name))
	}
	for _, s := range sp.series {
		if s.name == name {
			panic(fmt.Sprintf("metrics: series %q already watched", name))
		}
	}
	s := NewSeries(name, sp.cap)
	sp.series = append(sp.series, s)
	sp.sources = append(sp.sources, fn)
	return s
}

// Start schedules the first sampling tick at virtual time at (which must
// not be in the past) and every interval thereafter until Stop.
func (sp *Sampler) Start(at sim.Time) {
	if sp.started {
		panic("metrics: sampler already started")
	}
	sp.started = true
	sp.stopped = false
	sp.timer.Reset(at)
}

// Stop cancels future ticks. Retained series data stays readable.
func (sp *Sampler) Stop() {
	sp.stopped = true
	sp.timer.Stop()
}

func (sp *Sampler) tick() {
	if sp.stopped {
		return
	}
	now := sp.sched.Now()
	for i, s := range sp.series {
		s.Append(now, sp.sources[i]())
	}
	sp.timer.ResetAfter(sp.interval)
}

// Series returns the watched series in registration order.
func (sp *Sampler) Series() []*Series {
	return append([]*Series(nil), sp.series...)
}

// WriteTSV dumps every series in long format: "time_s<TAB>series<TAB>value",
// series in registration order, points in time order.
func (sp *Sampler) WriteTSV(w io.Writer) error {
	for _, s := range sp.series {
		for i := 0; i < s.n; i++ {
			p := s.At(i)
			if _, err := fmt.Fprintf(w, "%.6f\t%s\t%g\n",
				time.Duration(p.T).Seconds(), s.name, p.V); err != nil {
				return err
			}
		}
	}
	return nil
}
