// Command tcpsim runs one ad-hoc simulation scenario and reports per-flow
// goodput. It is the quickest way to poke at the simulator:
//
//	tcpsim -topology dumbbell -protocols TCP-PR,TCP-SACK -flows 8 -duration 60s
//	tcpsim -topology dumbbell -protocols TCP-PR -reorder swap-high -duration 30s
//	tcpsim -topology multipath -protocols TCP-PR -eps 0 -delay 60ms
//	tcpsim -topology city -shards 4 -districts 8 -hosts 16 -duration 5s
//
// Topologies: dumbbell (n flows share one bottleneck), parkinglot (Fig 1
// with cross traffic), multipath (Fig 5, one flow per protocol, ε-routed),
// city (districts of on/off web sources plus backbone bulk flows, run on
// the internal/psim sharded parallel engine; -shards picks the shard
// count, -districts/-hosts/-sources the size).
//
// -reorder installs one of internal/netem's canned reorder models on the
// bottleneck's data direction ('-reorder list' enumerates them); -jitter
// adds uniform random extra delay there through the Impairment seam;
// -repair installs a canned reorder-repair middlebox that resequences the
// bottleneck's deliveries ('-repair list' enumerates the scenarios). All
// three need a bottleneck, so they support dumbbell|parkinglot only.
//
// -check attaches the internal/invariant conformance oracle to the run;
// any violation is printed and the process exits nonzero.
//
// -metrics, -trace, -trace-tsv, -flight-recorder, -heartbeat,
// -engine-profile and -watchdog-timeout are one telemetry request
// (internal/runobs): the run manifest written into -metrics indexes every
// other file the run left behind. The trace flags need a single
// sequential network (not city); the -abort-* policy is installed on
// dumbbell|parkinglot flows only; -engine-profile needs city and -metrics.
// The flight-recorder file is created by its first dump, so a clean run
// leaves none.
//
// Contradictory or out-of-range flag combinations (negative durations,
// zero flows, -abort-r1 above -abort-r2, an impairment on a topology
// without a bottleneck, a telemetry flag the chosen topology would
// ignore, an output flag set to an empty path, …) are rejected up front
// with one "tcpsim:" line per problem on stderr and exit status 2 —
// never a mid-run panic, and before any file is created.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tcppr/internal/faults"
	"tcppr/internal/netem"
	"tcppr/internal/profiling"
	"tcppr/internal/psim"
	"tcppr/internal/routing"
	"tcppr/internal/runobs"
	"tcppr/internal/sim"
	"tcppr/internal/stats"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// scenario is the parsed command line: what to simulate, the impairments
// to inject, and the telemetry request.
type scenario struct {
	topology  string
	protos    []string
	flows     int
	warm, dur time.Duration
	eps       float64
	delay     time.Duration
	pr        workload.PRParams
	seed      int64
	shards    int
	city      topo.CityConfig
	sources   int
	linkFault string
	hostFault string
	faultAt   time.Duration
	reorder   string
	jitter    time.Duration
	repair    string
	abort     tcp.AbortConfig
	obs       *runobs.Options
	out, errw io.Writer
}

// run is the whole command: parse and validate args, run the scenario,
// and return the exit status (0 ok, 1 the run failed, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	sc := scenario{out: stdout, errw: stderr}
	fs := flag.NewFlagSet("tcpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&sc.topology, "topology", "dumbbell", "dumbbell|parkinglot|multipath|city")
	protocols := fs.String("protocols", "TCP-PR,TCP-SACK", "comma-separated protocol cycle for the flows")
	fs.IntVar(&sc.flows, "flows", 8, "number of flows (dumbbell/parkinglot)")
	fs.DurationVar(&sc.dur, "duration", 60*time.Second, "measurement window")
	fs.DurationVar(&sc.warm, "warm", 30*time.Second, "warm-up before measuring")
	fs.Float64Var(&sc.eps, "eps", 0, "multipath epsilon (multipath topology)")
	fs.DurationVar(&sc.delay, "delay", 10*time.Millisecond, "per-link delay (multipath topology)")
	fs.Float64Var(&sc.pr.Alpha, "alpha", 0.995, "TCP-PR alpha")
	fs.Float64Var(&sc.pr.Beta, "beta", 3.0, "TCP-PR beta")
	fs.Int64Var(&sc.seed, "seed", 42, "random seed")
	fs.IntVar(&sc.shards, "shards", 1, "shard count for the parallel engine (city topology)")
	fs.IntVar(&sc.city.Districts, "districts", 8, "city districts (city topology)")
	fs.IntVar(&sc.city.HostsPerDistrict, "hosts", 16, "hosts per district (city topology)")
	fs.IntVar(&sc.sources, "sources", 1, "on/off sources per host (city topology)")
	fs.StringVar(&sc.linkFault, "faults", "", "canned fault scenario to inject at the bottleneck ('list' to enumerate)")
	fs.DurationVar(&sc.faultAt, "fault-at", 5*time.Second, "when the fault scenario's disruption begins")
	fs.StringVar(&sc.hostFault, "host-faults", "", "canned host scenario to inject at the first destination host ('list' to enumerate)")
	fs.StringVar(&sc.reorder, "reorder", "", "canned reorder model to install on the bottleneck ('list' to enumerate)")
	fs.DurationVar(&sc.jitter, "jitter", 0, "uniform random extra delay on the bottleneck (dumbbell|parkinglot)")
	fs.StringVar(&sc.repair, "repair", "", "canned repair-middlebox scenario on the bottleneck ('list' to enumerate)")
	fs.IntVar(&sc.abort.R1, "abort-r1", 0, "RFC 1122 R1: consecutive timeouts before notifying (0 disables)")
	fs.IntVar(&sc.abort.R2, "abort-r2", 0, "RFC 1122 R2: consecutive timeouts before aborting the connection (0 disables)")
	fs.DurationVar(&sc.abort.UserTimeout, "abort-user-timeout", 0, "abort after this long without forward progress (0 disables)")
	sc.obs = runobs.RegisterFlags(fs)
	fs.StringVar(&sc.obs.MetricsDir, "metrics", "", "directory to write time series + a run manifest into")
	fs.BoolVar(&sc.obs.Check, "check", false, "attach the invariant oracle; violations fail the run")
	fs.StringVar(&sc.obs.TraceJSON, "trace", "", "write a Perfetto-loadable Chrome trace (ui.perfetto.dev) to this file")
	fs.StringVar(&sc.obs.TraceTSV, "trace-tsv", "", "write the hop-level span TSV to this file")
	fs.StringVar(&sc.obs.FlightFile, "flight-recorder", "", "arm the flight recorder; dumps (violations, panics) go to this file")
	prof := profiling.Register(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	sc.obs.Stdout, sc.obs.Stderr = stdout, stderr

	if listed := sc.list(); listed {
		return 0
	}
	if bad := sc.problems(fs, *protocols); len(bad) > 0 {
		for _, msg := range bad {
			fmt.Fprintln(stderr, "tcpsim:", msg)
		}
		fmt.Fprintln(stderr, "usage: see tcpsim -h")
		return 2
	}

	stopProf, err := prof.Start()
	if err == nil {
		switch sc.topology {
		case "dumbbell", "parkinglot":
			err = sc.runShared()
		case "multipath":
			err = sc.runMultipath()
		case "city":
			err = sc.runCity()
		}
	}
	if err == nil {
		err = stopProf()
	}
	if err != nil {
		fmt.Fprintln(stderr, "tcpsim:", err)
		return 1
	}
	return 0
}

// list serves the four "'list' to enumerate" catalogs.
func (sc *scenario) list() bool {
	switch {
	case sc.linkFault == "list":
		for _, s := range faults.Scenarios() {
			fmt.Fprintf(sc.out, "%-12s %s\n", s.Name, s.Description)
		}
	case sc.hostFault == "list":
		for _, s := range faults.HostScenarios() {
			fmt.Fprintf(sc.out, "%-16s %s\n", s.Name, s.Description)
		}
	case sc.reorder == "list":
		for _, s := range netem.ReorderScenarios() {
			fmt.Fprintf(sc.out, "%-12s %s\n", s.Name, s.Describe)
		}
	case sc.repair == "list":
		for _, s := range netem.RepairScenarios() {
			fmt.Fprintf(sc.out, "%-14s %s\n", s.Name, s.Describe)
		}
	default:
		return false
	}
	return true
}

// problems validates the whole flag set up front and reports every
// problem at once: a bad invocation must die with a usage error here, not
// as a panic halfway into the run, and a flag the chosen topology would
// silently ignore is a bad invocation.
func (sc *scenario) problems(fs *flag.FlagSet, protocols string) []string {
	bad := sc.obs.Problems(sc.topology == "city")
	reject := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	switch sc.topology {
	case "dumbbell", "parkinglot", "multipath", "city":
	default:
		reject("unknown topology %q (dumbbell|parkinglot|multipath|city)", sc.topology)
	}
	hasBottleneck := sc.topology == "dumbbell" || sc.topology == "parkinglot"
	for _, p := range strings.Split(protocols, ",") {
		p = strings.TrimSpace(p)
		if !workload.Known(p) {
			reject("unknown protocol %q (known: %s)", p, strings.Join(workload.AllProtocols(), ", "))
		}
		sc.protos = append(sc.protos, p)
	}
	if sc.flows < 1 {
		reject("-flows must be at least 1, got %d", sc.flows)
	}
	if sc.dur <= 0 {
		reject("-duration must be positive, got %v", sc.dur)
	}
	if sc.warm < 0 {
		reject("-warm cannot be negative, got %v", sc.warm)
	}
	if sc.eps < 0 {
		reject("-eps cannot be negative, got %g", sc.eps)
	}
	if sc.delay <= 0 {
		reject("-delay must be positive, got %v", sc.delay)
	}
	if sc.pr.Alpha <= 0 || sc.pr.Alpha >= 1 {
		reject("-alpha must lie in (0,1), got %g", sc.pr.Alpha)
	}
	if sc.pr.Beta < 1 {
		reject("-beta must be at least 1, got %g", sc.pr.Beta)
	}
	if sc.shards < 1 || sc.city.Districts < 1 || sc.city.HostsPerDistrict < 1 || sc.sources < 1 {
		reject("-shards/-districts/-hosts/-sources must all be at least 1")
	}
	if sc.faultAt < 0 {
		reject("-fault-at cannot be negative, got %v", sc.faultAt)
	}
	if sc.abort.R1 < 0 || sc.abort.R2 < 0 || sc.abort.UserTimeout < 0 {
		reject("abort thresholds cannot be negative")
	}
	if sc.abort.R1 > 0 && sc.abort.R2 > 0 && sc.abort.R1 > sc.abort.R2 {
		reject("-abort-r1 (%d) must not exceed -abort-r2 (%d): R1 warns before R2 aborts", sc.abort.R1, sc.abort.R2)
	}
	if sc.abort != (tcp.AbortConfig{}) && !hasBottleneck {
		reject("-abort-r1/-abort-r2/-abort-user-timeout apply to dumbbell|parkinglot flows only")
	}
	if sc.jitter < 0 {
		reject("-jitter cannot be negative, got %v", sc.jitter)
	}
	if sc.reorder != "" {
		if _, err := netem.ReorderScenarioByName(sc.reorder); err != nil {
			reject("%v", err)
		}
	}
	if sc.repair != "" {
		if _, err := netem.RepairScenarioByName(sc.repair); err != nil {
			reject("%v", err)
		}
	}
	if (sc.reorder != "" || sc.jitter > 0 || sc.repair != "") && !hasBottleneck {
		reject("-reorder/-jitter/-repair need a bottleneck link; they support dumbbell|parkinglot only")
	}
	if sc.linkFault != "" {
		if _, err := faults.ScenarioByName(sc.linkFault); err != nil {
			reject("%v", err)
		}
	}
	if sc.hostFault != "" {
		if _, err := faults.HostScenarioByName(sc.hostFault); err != nil {
			reject("%v", err)
		}
	}
	if (sc.linkFault != "" || sc.hostFault != "") && !hasBottleneck {
		reject("-faults/-host-faults support dumbbell|parkinglot only")
	}
	if o := sc.obs; (o.TraceJSON != "" || o.TraceTSV != "" || o.FlightFile != "") && sc.topology == "city" {
		reject("-trace/-trace-tsv/-flight-recorder trace one sequential network; the city topology runs one per shard")
	}
	// An output flag explicitly set to "" silently discards its artifact;
	// catch the contradiction instead of running for nothing.
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "metrics", "trace", "trace-tsv", "flight-recorder":
			if f.Value.String() == "" {
				reject("-%s was set to an empty path; pass a real destination or drop the flag", f.Name)
			}
		}
	})
	return bad
}

// verdict reports the invariant oracle's outcome for one finished run.
func (sc *scenario) verdict(ses *runobs.Session) error {
	if !sc.obs.Check {
		return nil
	}
	if err := ses.Err(); err != nil {
		for _, f := range ses.Failures() {
			for _, v := range f.Violations {
				fmt.Fprintln(sc.errw, "  "+v.String())
			}
		}
		return err
	}
	fmt.Fprintln(sc.out, "invariants: ok (0 violations)")
	return nil
}

func (sc *scenario) runShared() error {
	sched := sim.NewScheduler()
	n := sc.flows
	var flowsOut []*workload.Flow
	var bottlenecks []*netem.Link
	var network *netem.Network
	var firstDst *netem.Node
	starts := workload.StaggeredStarts(n, 0, 5*time.Second)
	add := func(f *tcp.Flow, i int) {
		f.AbortPolicy = sc.abort
		flowsOut = append(flowsOut, workload.NewFlow(f, sc.protos[i%len(sc.protos)], sc.pr, starts[i]))
	}

	switch sc.topology {
	case "dumbbell":
		d := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: n})
		network = d.Net
		bottlenecks = []*netem.Link{d.Bottleneck}
		firstDst = d.Dst(0)
		for i := 0; i < n; i++ {
			add(tcp.NewFlow(d.Net, i+1, d.Src(i), d.Dst(i),
				routing.Static{Path: d.FwdPath(i)}, routing.Static{Path: d.RevPath(i)}), i)
		}
	case "parkinglot":
		p := topo.NewParkingLot(sched, n, 0)
		network = p.Net
		bottlenecks = []*netem.Link{
			p.Net.FindLink("r1", "r2"), p.Net.FindLink("r2", "r3"), p.Net.FindLink("r3", "r4"),
		}
		firstDst = p.Dst(0)
		for i := 0; i < n; i++ {
			add(tcp.NewFlow(p.Net, i+1, p.Src(i), p.Dst(i),
				routing.Static{Path: p.MainFwd(i)}, routing.Static{Path: p.MainRev(i)}), i)
		}
		for i, cp := range topo.CrossPairs() {
			f := tcp.NewFlow(p.Net, 10_000+i, p.Net.Node(cp.Src), p.Net.Node(cp.Dst),
				routing.Static{Path: p.CrossFwd(cp)}, routing.Static{Path: p.CrossRev(cp)})
			workload.NewFlow(f, workload.TCPSACK, sc.pr, 0)
		}
	}
	fwd := bottlenecks[0]

	// Persistent impairments on the bottleneck's data direction: a canned
	// reorder model (its RNG on a split seed stream, so adding -jitter
	// never perturbs the permutation) and/or jitter via the Impairment
	// seam. problems() already vouched for every catalog name.
	name := "tcpsim_" + sc.topology
	for _, part := range []string{sc.linkFault, sc.hostFault, sc.reorder, sc.repair} {
		if part != "" {
			name += "_" + part
		}
	}
	if sc.reorder != "" {
		rs, _ := netem.ReorderScenarioByName(sc.reorder)
		if m := rs.New(sim.NewRand(sim.SplitSeed(sc.seed, 101))); m != nil {
			fwd.SetReorderModel(m)
		}
		fmt.Fprintf(sc.out, "reorder: model %q on %s (%s)\n\n", rs.Name, fwd, rs.Describe)
	}
	if sc.jitter > 0 {
		fwd.SetImpairment(netem.NewJitter(sc.jitter, sim.NewRand(sim.SplitSeed(sc.seed, 102))))
	}
	// An optional repair middlebox resequences the same direction the
	// reorder model scrambles. The box is deterministic (no RNG); it must
	// be flushed after the horizon so its custody ledger closes before the
	// invariant oracle's end-of-run audit.
	var box *netem.RepairBox
	if sc.repair != "" {
		rs, _ := netem.RepairScenarioByName(sc.repair)
		if box = rs.New(); box != nil {
			fwd.SetRepair(box)
		}
		fmt.Fprintf(sc.out, "repair: scenario %q on %s (%s)\n\n", rs.Name, fwd, rs.Describe)
	}

	ses := runobs.NewSession(*sc.obs)
	scope := ses.Open(name, sc.warm+sc.dur, network, sched)
	defer scope.DumpOnPanic()
	scope.Flows(flowsOut...)
	scope.Links(bottlenecks...)

	// Scripted faults: link scenarios hit the first bottleneck hop (both
	// directions), host scenarios hit the first destination host. Both
	// build into one timeline so a single Install covers either or both.
	var tl *faults.Timeline
	if sc.linkFault != "" || sc.hostFault != "" {
		tl = faults.NewTimeline()
		scope.Timeline(tl)
		faults.InstrumentHostDrops(scope.Registry(), network)
		if sc.linkFault != "" {
			fsc, _ := faults.ScenarioByName(sc.linkFault)
			fsc.Build(tl, fwd, network.FindLink(fwd.To.Name, fwd.From.Name), sc.faultAt, sc.seed)
			fmt.Fprintf(sc.out, "faults: scenario %q on %s starting at %v (%s)\n", fsc.Name, fwd, sc.faultAt, fsc.Description)
		}
		if sc.hostFault != "" {
			hsc, _ := faults.HostScenarioByName(sc.hostFault)
			hsc.Build(tl, firstDst, sim.Time(sc.faultAt))
			fmt.Fprintf(sc.out, "faults: host scenario %q on %s starting at %v (%s)\n", hsc.Name, firstDst.Name, sc.faultAt, hsc.Description)
		}
		tl.Install(sched)
		fmt.Fprintln(sc.out)
	}

	sc.measureAndReport(sched, flowsOut)
	if box != nil {
		box.Flush()
		st := box.Stats()
		fmt.Fprintf(sc.out, "\nrepair: held %d released %d timed-out %d overflow fwd/drop %d/%d evicted %d flushed %d\n",
			st.Held, st.Released, st.TimedOut, st.OverflowForwarded, st.OverflowDropped,
			st.Evicted, st.Flushed)
	}
	for _, wf := range flowsOut {
		if wf.Flow.Aborted() {
			fmt.Fprintf(sc.out, "flow %d (%s) aborted at %v: %s\n", wf.ID, wf.Protocol,
				time.Duration(wf.Flow.AbortedAt()), wf.Flow.AbortCause())
		}
	}
	if tl != nil {
		fmt.Fprintf(sc.out, "\nfault events applied:\n%s", tl.EventsTSV())
	}
	if err := scope.Finish(runobs.Fields{Experiment: "tcpsim", Topology: sc.topology, Seed: sc.seed,
		Params: map[string]float64{"flows": float64(n)}}); err != nil {
		return err
	}
	return sc.verdict(ses)
}

// runMultipath runs one flow at a time per protocol, matching the paper's
// Fig 6 setup. Each protocol is a run of its own — own session, own file
// set: the explicit trace paths get the protocol inserted before their
// extension (trace.json → trace_TCP-PR.json).
func (sc *scenario) runMultipath() error {
	fmt.Fprintf(sc.out, "multipath: eps=%g delay=%v (one flow per protocol, separate runs)\n\n", sc.eps, sc.delay)
	for _, proto := range sc.protos {
		o := *sc.obs
		o.TraceJSON, o.TraceTSV, o.FlightFile = suffixPath(o.TraceJSON, proto), suffixPath(o.TraceTSV, proto), suffixPath(o.FlightFile, proto)
		if err := sc.runMultipathOne(runobs.NewSession(o), proto); err != nil {
			return err
		}
	}
	return nil
}

// runMultipathOne runs one protocol's multipath cell; its own function so
// the scope's panic hook covers exactly one simulation.
func (sc *scenario) runMultipathOne(ses *runobs.Session, proto string) error {
	sched := sim.NewScheduler()
	m := topo.NewMultipath(sched, 3, sc.delay)
	fwd := routing.NewEpsilon(m.FwdPaths, sc.eps, sim.NewRand(sim.SplitSeed(sc.seed, 1)))
	rev := routing.NewEpsilon(m.RevPaths, sc.eps, sim.NewRand(sim.SplitSeed(sc.seed, 2)))
	f := tcp.NewFlow(m.Net, 1, m.Src, m.Dst, fwd, rev)
	wf := workload.NewFlow(f, proto, sc.pr, 0)
	scope := ses.Open("tcpsim_multipath_"+proto, sc.warm+sc.dur, m.Net, sched)
	defer scope.DumpOnPanic()
	scope.Flows(wf)
	scope.Links(m.Net.Links()...)
	wf.MarkWindow(sched, sc.warm, sc.warm+sc.dur)
	sched.RunUntil(sc.warm + sc.dur)
	mbps := stats.Mbps(stats.Throughput(wf.WindowBytes(), sc.dur))
	fmt.Fprintf(sc.out, "%-10s %7.2f Mbps (retx %d of %d sent)\n", proto, mbps, f.DataRetx(), f.DataSent())
	sc.reportScheduler(sched.Processed(), sched.Stats())
	if err := scope.Finish(runobs.Fields{Experiment: "tcpsim", Topology: "multipath", Seed: sc.seed,
		Params: map[string]float64{"eps": sc.eps, "delay_ms": float64(sc.delay.Milliseconds())}}); err != nil {
		return err
	}
	return sc.verdict(ses)
}

// runCity drives the sharded parallel engine over the districts-of-web-
// sources city workload and reports throughput of the run itself. With
// -engine-profile/-heartbeat/-watchdog-timeout set the engine's barrier
// loop is instrumented, and -metrics receives the artifacts (window-
// profile TSV/JSON, Perfetto shard lanes, heartbeat JSONL) plus the run
// manifest indexing them, so tcpreport can diff two city runs.
func (sc *scenario) runCity() error {
	ses := runobs.NewSession(*sc.obs)
	_, err := ses.RunCity("tcpsim_city", "tcpsim", psim.CityRun{
		City: sc.city, Shards: sc.shards, Seed: sc.seed, Horizon: sc.dur, SourcesPerHost: sc.sources,
	}, func(res psim.CityResult) {
		fmt.Fprintf(sc.out, "city: %d districts x %d hosts x %d sources, %d shards (lookahead %v)\n",
			sc.city.Districts, sc.city.HostsPerDistrict, sc.sources, res.Shards, res.Lookahead)
		fmt.Fprintf(sc.out, "  flows started       %12d\n", res.Flows)
		fmt.Fprintf(sc.out, "  transfers completed %12d (%d bytes)\n", res.Transfers, res.TransferBytes)
		fmt.Fprintf(sc.out, "  backbone bulk bytes %12d\n", res.BulkBytes)
		fmt.Fprintf(sc.out, "  sim %0.2fs in wall %0.2fs = %0.2f sim-s/wall-s\n",
			res.SimSeconds, res.WallSeconds, res.SimRate())
		sc.reportScheduler(res.Events, res.Scheduler)
	})
	if err != nil {
		return err
	}
	return sc.verdict(ses)
}

func (sc *scenario) measureAndReport(sched *sim.Scheduler, flows []*workload.Flow) {
	for _, f := range flows {
		f.MarkWindow(sched, sc.warm, sc.warm+sc.dur)
	}
	sched.RunUntil(sc.warm + sc.dur)

	bytes := make([]float64, len(flows))
	for i, f := range flows {
		bytes[i] = float64(f.WindowBytes())
	}
	// Normalized returns nil when nothing was delivered — possible now
	// that a host fault can kill every flow before the window opens.
	norm := stats.Normalized(bytes)
	fmt.Fprintf(sc.out, "%-4s %-10s %10s %10s\n", "flow", "protocol", "mbps", "normalized")
	for i, f := range flows {
		n := 0.0
		if norm != nil {
			n = norm[i]
		}
		fmt.Fprintf(sc.out, "%-4d %-10s %10.2f %10.3f\n", f.ID, f.Protocol,
			stats.Mbps(stats.Throughput(f.WindowBytes(), sc.dur)), n)
	}
	labels, series := workload.ByProtocol(flows, sc.dur)
	fmt.Fprintln(sc.out)
	for _, l := range labels {
		fmt.Fprintf(sc.out, "%-10s mean %7.2f Mbps over %d flows\n", l, stats.Mbps(stats.Mean(series[l])), len(series[l]))
	}
	sc.reportScheduler(sched.Processed(), sched.Stats())
}

// reportScheduler prints the event count and the event-queue counters of a
// finished run, the same figures the run manifest carries.
func (sc *scenario) reportScheduler(events uint64, st sim.Stats) {
	fmt.Fprintf(sc.out, "scheduler: %d events, heap pushes %d pops %d (%d cancelled) re-arms %d, lane pushes %d fallbacks %d, peak heap %d\n",
		events, st.Pushes, st.Pops, st.CancelledPops, st.Rearms, st.LanePushes, st.LaneFallbacks, st.MaxHeapLen)
}

// suffixPath inserts a suffix before the path's extension:
// trace.json + TCP-PR → trace_TCP-PR.json.
func suffixPath(path, suffix string) string {
	if path == "" {
		return ""
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "_" + suffix + ext
}
