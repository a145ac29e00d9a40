// Package fuzzer composes randomized-but-deterministic scenarios and runs
// the invariant.Checker over each one. A scenario is a seeded draw of
// topology (congested dumbbell with a scripted fault, or ε-multipath with
// persistent reordering), TCP variant mix, and fault script; the same seed
// always reproduces the same scenario, so every reported failure carries
// the one number needed to replay it:
//
//	go run ./cmd/experiments -fuzz-seed <seed>
package fuzzer

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"tcppr/internal/faults"
	"tcppr/internal/invariant"
	"tcppr/internal/netem"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/span"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// Config parameterizes a fuzzing campaign.
type Config struct {
	// Runs is the number of scenarios to draw (required for Run).
	Runs int
	// Seed is the campaign base seed; scenario i runs with
	// sim.SplitSeed(Seed, i).
	Seed int64
	// Duration is the per-scenario virtual run length before the cool-down
	// (default 20 s; fault scenarios extend it by their disrupt window).
	Duration time.Duration
	// Factory overrides sender construction — a test hook for verifying
	// that the oracle catches deliberately broken senders. Nil uses
	// workload.Factory.
	Factory func(protocol string, pr workload.PRParams) workload.SenderFactory
	// Log, if non-nil, receives one line per scenario.
	Log func(format string, args ...any)
	// FlightRecorder, if non-nil, attaches the internal/span causal tracer
	// to every scenario and streams flight dumps into this writer: each
	// invariant violation dumps the event tail plus the hop-by-hop causal
	// trail of the implicated packet. This is how a replayed failure seed
	// (-fuzz-seed) explains itself.
	FlightRecorder io.Writer
}

func (c *Config) fill() {
	if c.Duration <= 0 {
		c.Duration = 20 * time.Second
	}
	if c.Factory == nil {
		c.Factory = func(protocol string, pr workload.PRParams) workload.SenderFactory {
			return workload.Factory(protocol, pr)
		}
	}
}

// Failure is one scenario that violated an invariant.
type Failure struct {
	// Seed replays the scenario through RunOne.
	Seed int64
	// Desc describes the drawn scenario.
	Desc string
	// Total and Violations mirror the checker's findings.
	Total      int
	Violations []invariant.Violation
}

func (f Failure) String() string {
	s := fmt.Sprintf("seed %d: %s: %d violation(s)", f.Seed, f.Desc, f.Total)
	for i, v := range f.Violations {
		if i == 3 {
			s += "\n  …"
			break
		}
		s += "\n  " + v.String()
	}
	return s
}

// Result summarizes a campaign.
type Result struct {
	Runs     int
	Failures []Failure
}

// Err returns nil for a clean campaign, otherwise an error naming the
// first failing seed.
func (r Result) Err() error {
	if len(r.Failures) == 0 {
		return nil
	}
	return fmt.Errorf("fuzzer: %d of %d scenarios violated invariants; first: %s",
		len(r.Failures), r.Runs, r.Failures[0])
}

// tracer is one scenario's optional causal-tracing scope.
type tracer struct {
	col *span.Collector
	fr  *span.FlightRecorder
}

// tracer attaches the causal tracer to a scenario when the campaign asked
// for flight recording; nil (a no-op scope) otherwise. Call it before the
// checker subscribes to the network, so a violation's flight dump ends
// with the event that caused it.
func (c Config) tracer(sched *sim.Scheduler, net *netem.Network, ck *invariant.Checker) *tracer {
	if c.FlightRecorder == nil {
		return nil
	}
	col := span.New(sched, 0)
	col.AttachNetwork(net)
	fr := span.NewFlightRecorder(col, c.FlightRecorder)
	fr.ArmChecker(ck)
	return &tracer{col: col, fr: fr}
}

func (t *tracer) flow(f *tcp.Flow, protocol string) {
	if t != nil {
		t.col.AttachFlow(f, protocol)
	}
}

func (t *tracer) timeline(tl *faults.Timeline) {
	if t != nil {
		t.fr.ArmTimeline(tl)
	}
}

// Run executes cfg.Runs scenarios and collects the failures.
func Run(cfg Config) Result {
	cfg.fill()
	res := Result{Runs: cfg.Runs}
	for i := 0; i < cfg.Runs; i++ {
		seed := sim.SplitSeed(cfg.Seed, int64(i))
		desc, c := RunOne(seed, cfg)
		if cfg.Log != nil {
			cfg.Log("fuzz %3d/%d seed %-20d %-60s violations=%d", i+1, cfg.Runs, seed, desc, c.Total())
		}
		if c.Total() > 0 {
			res.Failures = append(res.Failures, Failure{
				Seed: seed, Desc: desc, Total: c.Total(), Violations: c.Violations(),
			})
		}
	}
	return res
}

// RunOne draws and executes the scenario for one seed, returning its
// description and the finished checker. Identical seeds (and an identical
// Config protocol pool) produce identical scenarios — this is the replay
// entry point for failures reported by Run.
func RunOne(seed int64, cfg Config) (string, *invariant.Checker) {
	cfg.fill()
	rng := sim.NewRand(seed)
	if rng.Intn(2) == 0 {
		return runDumbbell(seed, rng, cfg)
	}
	return runMultipath(seed, rng, cfg)
}

// runDumbbell: 2–4 flows with drawn variants share a drawn bottleneck
// while one of the canned fault scenarios hits it mid-run.
func runDumbbell(seed int64, rng *rand.Rand, cfg Config) (string, *invariant.Checker) {
	hosts := 2 + rng.Intn(3)
	bws := []float64{4, 8, 15}
	bw := bws[rng.Intn(len(bws))]
	scens := faults.Scenarios()
	scen := scens[rng.Intn(len(scens))]
	protos := make([]string, hosts)
	all := workload.AllProtocols()
	for i := range protos {
		protos[i] = all[rng.Intn(len(all))]
	}

	sched := sim.NewScheduler()
	d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: hosts, BottleneckBW: topo.Mbps(bw)})
	c := invariant.New(sched)
	tr := cfg.tracer(sched, d.Net, c)
	c.AttachNetwork(d.Net)

	pr := workload.PRParams{Alpha: 0.995, Beta: 3}
	starts := workload.StaggeredStarts(hosts, 0, 2*time.Second)
	for i, proto := range protos {
		f := tcp.NewFlow(d.Net, i+1, d.Src(i), d.Dst(i),
			routing.Static{Path: d.FwdPath(i)}, routing.Static{Path: d.RevPath(i)})
		f.Attach(cfg.Factory(proto, pr))
		f.Start(starts[i])
		c.AttachFlow(f, proto)
		tr.flow(f, proto)
	}

	faultStart := 5 * time.Second
	tl := faults.NewTimeline()
	tr.timeline(tl)
	rev := d.Net.FindLink("R", "L")
	scen.Build(tl, d.Bottleneck, rev, sim.Time(faultStart), sim.SplitSeed(seed, 1))
	tl.Install(sched)

	dur := cfg.Duration + scen.Disrupt
	sched.RunUntil(sim.Time(dur))
	c.Finish()

	desc := fmt.Sprintf("dumbbell hosts=%d bw=%gMbps fault=%s protos=%v", hosts, bw, scen.Name, protos)
	return desc, c
}

// runMultipath: one or two flows of a drawn variant over the Fig 5
// disjoint-path topology with a drawn ε (persistent reordering).
func runMultipath(seed int64, rng *rand.Rand, cfg Config) (string, *invariant.Checker) {
	numPaths := 2 + rng.Intn(3)
	delays := []time.Duration{10 * time.Millisecond, 60 * time.Millisecond}
	delay := delays[rng.Intn(len(delays))]
	epss := []float64{0, 1, 5, 50}
	eps := epss[rng.Intn(len(epss))]
	flows := 1 + rng.Intn(2)
	protos := make([]string, flows)
	all := workload.AllProtocols()
	for i := range protos {
		protos[i] = all[rng.Intn(len(all))]
	}

	sched := sim.NewScheduler()
	m := topo.NewMultipath(sched, numPaths, delay)
	c := invariant.New(sched)
	tr := cfg.tracer(sched, m.Net, c)
	c.AttachNetwork(m.Net)

	pr := workload.PRParams{Alpha: 0.995, Beta: 3}
	starts := workload.StaggeredStarts(flows, 0, time.Second)
	for i, proto := range protos {
		f := tcp.NewFlow(m.Net, i+1, m.Src, m.Dst,
			routing.NewEpsilon(m.FwdPaths, eps, sim.NewRand(sim.SplitSeed(seed, int64(10+i)))),
			routing.NewEpsilon(m.RevPaths, eps, sim.NewRand(sim.SplitSeed(seed, int64(20+i)))))
		f.Attach(cfg.Factory(proto, pr))
		f.Start(starts[i])
		c.AttachFlow(f, proto)
		tr.flow(f, proto)
	}

	sched.RunUntil(sim.Time(cfg.Duration))
	c.Finish()

	desc := fmt.Sprintf("multipath paths=%d delay=%v eps=%g protos=%v", numPaths, delay, eps, protos)
	return desc, c
}
