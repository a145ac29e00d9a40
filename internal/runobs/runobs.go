// Package runobs owns one decision: how a simulation run is instrumented
// and what files it leaves behind. A Session holds the telemetry a
// process was asked for (metrics directory, invariant checking, trace and
// flight-recorder destinations, heartbeat / engine profile / watchdog)
// together with the cross-run state that request implies — the
// mutex-guarded run aggregate and the invariant-violation summary. A
// Scope, opened from the session around one simulation (an experiment
// cell, a tcpsim run), assembles the metrics + invariant + span/flight +
// engineobs stack in the one order that works, and its Finish tears it
// down, writes every artifact through one helper under one naming
// scheme, and indexes all of them in the run manifest.
//
// A nil *Session asks for nothing: Open returns a nil *Scope, and every
// Scope method is a no-op on nil, so call sites carry no telemetry
// branches.
//
// Layering: runobs sits above metrics, invariant, span, engineobs and
// faults, and below internal/experiments and the CLIs. The scenario
// fuzzer, psim.BuildCity's per-shard checkers and internal/bench wire
// their own stacks — they measure or randomize the wiring itself.
package runobs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"tcppr/internal/engineobs"
	"tcppr/internal/faults"
	"tcppr/internal/invariant"
	"tcppr/internal/metrics"
	"tcppr/internal/netem"
	"tcppr/internal/psim"
	"tcppr/internal/sim"
	"tcppr/internal/span"
	"tcppr/internal/tcp"
	"tcppr/internal/workload"
)

// Options is the telemetry a process asks for. The zero value asks for
// nothing.
type Options struct {
	// MetricsDir receives, per scope, <scope>.series.tsv and
	// <scope>.manifest.json, plus the engine profile and heartbeat JSONL
	// when those are on.
	MetricsDir string
	// Check attaches the internal/invariant conformance oracle.
	Check bool
	// TraceDir turns on causal tracing with per-scope file names:
	// <scope>.trace.json (Perfetto-loadable Chrome trace) and
	// <scope>.spans.tsv, plus <scope>.flight.txt when FlightRecorder is
	// set and something dumped.
	TraceDir       string
	FlightRecorder bool
	// TraceJSON, TraceTSV and FlightFile name the same three exports
	// individually, for a process that runs a single scope (tcpsim). Any
	// subset may be set; they are ignored when TraceDir is.
	TraceJSON, TraceTSV, FlightFile string
	// Heartbeat, when positive, emits progress beats at that wall-clock
	// interval to Stderr and into <scope>.heartbeat.jsonl under
	// MetricsDir.
	Heartbeat time.Duration
	// EngineProfile records the parallel engine's per-shard window
	// profile into <scope>.engine.{tsv,json,trace.json} under MetricsDir.
	EngineProfile bool
	// WatchdogTimeout, when positive, aborts a scope that makes no
	// simulation progress for that long (exit status 3, diagnostics on
	// Stderr).
	WatchdogTimeout time.Duration
	// Stdout, when non-nil, receives one "wrote …" line per artifact
	// group as a scope finishes. Stderr receives heartbeat text and
	// watchdog diagnostics (nil: os.Stderr).
	Stdout, Stderr io.Writer
}

// RegisterFlags installs the engine-telemetry flags both CLIs share
// (-heartbeat, -engine-profile, -watchdog-timeout) on fs and returns the
// Options they fill; the caller binds its own flags to the other fields.
func RegisterFlags(fs *flag.FlagSet) *Options {
	o := &Options{}
	fs.DurationVar(&o.Heartbeat, "heartbeat", 0, "emit live progress heartbeats at this wall-clock interval (0 disables; JSONL lands in -metrics)")
	fs.BoolVar(&o.EngineProfile, "engine-profile", false, "write the parallel engine's per-shard window profile (TSV/JSON + Perfetto shard lanes) into -metrics (city only)")
	fs.DurationVar(&o.WatchdogTimeout, "watchdog-timeout", 0, "abort with diagnostics after this long without simulation progress (0 disables)")
	return o
}

// engine reports whether any engineobs telemetry was requested.
func (o *Options) engine() bool {
	return o.Heartbeat > 0 || o.EngineProfile || o.WatchdogTimeout > 0
}

// Problems validates the shared flags, one message per problem.
// parallelEngine says whether the invocation drives internal/psim, the
// only thing -engine-profile can profile.
func (o *Options) Problems(parallelEngine bool) []string {
	var bad []string
	if o.Heartbeat < 0 {
		bad = append(bad, fmt.Sprintf("-heartbeat cannot be negative, got %v", o.Heartbeat))
	}
	if o.WatchdogTimeout < 0 {
		bad = append(bad, fmt.Sprintf("-watchdog-timeout cannot be negative, got %v", o.WatchdogTimeout))
	}
	if o.EngineProfile && !parallelEngine {
		bad = append(bad, "-engine-profile profiles the parallel engine's barrier windows; only city runs drive it")
	}
	if o.EngineProfile && o.MetricsDir == "" {
		bad = append(bad, "-engine-profile needs -metrics for somewhere to write the profile")
	}
	return bad
}

// tracePaths resolves one scope's trace destinations ("" = not wanted).
func (o *Options) tracePaths(scope string) (json, tsv, flight string) {
	if o.TraceDir == "" {
		return o.TraceJSON, o.TraceTSV, o.FlightFile
	}
	json = filepath.Join(o.TraceDir, scope+".trace.json")
	tsv = filepath.Join(o.TraceDir, scope+".spans.tsv")
	if o.FlightRecorder {
		flight = filepath.Join(o.TraceDir, scope+".flight.txt")
	}
	return json, tsv, flight
}

// WriteFile is the one whole-file artifact writer: it creates path (and
// its directory), hands the file to write, and reports the first error
// including the one from Close.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// create makes path's directory, then the file.
func create(path string) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return os.Create(path)
}

// stream is a file sink that comes into existence on its first write, so
// a heartbeat that never beat or a flight recorder that never dumped
// leaves nothing behind, while a dump written from a panic or a watchdog
// stall is on disk the moment it happens.
type stream struct {
	path string
	f    *os.File
}

func (s *stream) Write(p []byte) (int, error) {
	if s.f == nil {
		f, err := create(s.path)
		if err != nil {
			return 0, err
		}
		s.f = f
	}
	return s.f.Write(p)
}

// close closes the file and reports whether it was ever created.
func (s *stream) close() (written bool, err error) {
	if s == nil || s.f == nil {
		return false, nil
	}
	err = s.f.Close()
	s.f = nil
	return true, err
}

// CellViolations is the invariant outcome of one failing scope.
type CellViolations struct {
	// Cell names the scope ("fig2_dumbbell_n8", ...).
	Cell string
	// Total counts every violation; Violations holds the recorded ones
	// (capped at invariant.DefaultMaxRecord).
	Total      int
	Violations []invariant.Violation
}

// Session is one process's telemetry request plus what its scopes fold
// into: the run-level aggregate registry and the violation summary.
// Scopes finish on parallel workers, so both are synchronized.
type Session struct {
	opts      Options
	agg       *metrics.Registry
	wallStart time.Time

	mu        sync.Mutex
	cells     int
	total     int
	fails     []CellViolations
	exportErr error // first Scope.Finish failure
}

// NewSession captures the request. Stderr is wrapped so concurrent
// scopes' heartbeat lines stay whole.
func NewSession(o Options) *Session {
	if o.Stderr == nil {
		o.Stderr = os.Stderr
	}
	o.Stderr = engineobs.NewSyncWriter(o.Stderr)
	return &Session{opts: o, agg: metrics.NewShared(), wallStart: time.Now()}
}

// Cells returns how many scopes finished under invariant checking.
func (s *Session) Cells() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cells
}

// Failures returns the per-scope violation reports, in completion order.
func (s *Session) Failures() []CellViolations {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]CellViolations(nil), s.fails...)
}

// Err returns the first export failure any scope's Finish reported —
// cells whose runners cannot return an error still fail the run through
// here — and otherwise nil when every checked scope was clean, or an
// error naming the failing scopes and their first violations.
func (s *Session) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exportErr != nil || s.total == 0 {
		return s.exportErr
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "invariants: %d violation(s) in %d of %d cell(s)", s.total, len(s.fails), s.cells)
	for i, f := range s.fails {
		if i == 3 {
			sb.WriteString("; …")
			break
		}
		fmt.Fprintf(&sb, "; cell %s: %d violation(s)", f.Cell, f.Total)
		for j, v := range f.Violations {
			if j == 2 {
				sb.WriteString(" …")
				break
			}
			fmt.Fprintf(&sb, " [%s]", v)
		}
	}
	return fmt.Errorf("%s", sb.String())
}

// record folds one checked scope into the summary.
func (s *Session) record(cv CellViolations) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cells++
	if cv.Total > 0 {
		s.total += cv.Total
		s.fails = append(s.fails, cv)
	}
}

// WriteAggregate writes the run-level manifest <experiment>_run.json
// (cells_completed, events_processed, series_points over every scope
// finished so far) into MetricsDir; without one it does nothing.
func (s *Session) WriteAggregate(experiment string) error {
	if s == nil || s.opts.MetricsDir == "" {
		return nil
	}
	m := &metrics.Manifest{
		Name:        metrics.SanitizeName(experiment) + "_run",
		Experiment:  experiment,
		WallSeconds: metrics.Wall(s.wallStart),
	}
	snap := s.agg.Snapshot()
	m.EventsProcessed = snap.Counters["events_processed"]
	m.FillRates()
	m.AddSnapshot(snap)
	return WriteFile(filepath.Join(s.opts.MetricsDir, m.Name+".json"), m.WriteJSON)
}

// Scope instruments one simulation. Register what it should watch —
// Links, Flows / Flow, Timeline — in the order the series should appear,
// run the clock, then call Finish exactly once.
type Scope struct {
	ses     *Session
	name    string
	horizon time.Duration
	scheds  []*sim.Scheduler
	start   time.Time

	reg  *metrics.Registry
	samp *metrics.Sampler
	ck   *invariant.Checker
	col  *span.Collector
	fr   *span.FlightRecorder
	tls  []*faults.Timeline

	jsonPath, tsvPath string
	flight, jsonl     *stream
	hb                *engineobs.Heartbeat
	wd                *engineobs.Watchdog
	prof              *engineobs.Profiler
}

// Open starts instrumenting one simulation of length horizon running on
// scheds (one scheduler for a sequential run) over net. The name becomes
// the artifact file stem. Open after the network is wired and wherever
// the call site wants the sampler's first tick ordered among its t=0
// events; nothing Open attaches touches packet, flow or RNG state.
func (s *Session) Open(name string, horizon time.Duration, net *netem.Network, scheds ...*sim.Scheduler) *Scope {
	if s == nil {
		return nil
	}
	o := &s.opts
	sc := &Scope{
		ses: s, name: metrics.SanitizeName(name), horizon: horizon,
		scheds: scheds, start: time.Now(),
	}
	if o.MetricsDir != "" {
		sc.reg = metrics.New()
		if net != nil {
			sc.samp = metrics.NewSampler(scheds[0], metrics.DefaultInterval, metrics.DefaultSeriesCap)
			sc.samp.Start(0)
		}
	}
	var flightPath string
	// Trace exports keep the scope's name verbatim ("…_Inc by N.trace.json"),
	// as they always have; every other stem is the sanitized one.
	sc.jsonPath, sc.tsvPath, flightPath = o.tracePaths(name)
	// The collector subscribes before the checker, so a violation's flight
	// dump ends with the event that caused it.
	if net != nil && (sc.jsonPath != "" || sc.tsvPath != "" || flightPath != "") {
		sc.col = span.New(scheds[0], span.DefaultCap)
		sc.col.AttachNetwork(net)
	}
	if o.Check && net != nil {
		sc.ck = invariant.New(scheds[0])
		sc.ck.AttachNetwork(net)
		if sc.reg != nil {
			sc.ck.SetMetrics(sc.reg)
		}
	}
	if sc.col != nil && flightPath != "" {
		sc.flight = &stream{path: flightPath}
		sc.fr = span.NewFlightRecorder(sc.col, sc.flight)
		if sc.ck != nil {
			sc.fr.ArmChecker(sc.ck)
		}
	}
	if o.engine() {
		sc.armEngine(o)
	}
	return sc
}

// RunCity builds one sharded city cell, runs it inside a scope whose
// heartbeat and window profiler ride the engine's barrier hooks, and
// finishes the scope with the run's totals. The shards carry psim's own
// per-shard checkers (armed when the session checks), so the scope
// samples and checks nothing itself; the violation count is folded into
// the session like any other scope's. report, when non-nil, sees the
// result before the scope finishes, so a CLI's summary precedes the
// "wrote …" lines.
func (s *Session) RunCity(name, experiment string, cfg psim.CityRun, report func(psim.CityResult)) (psim.CityResult, error) {
	cfg.CheckInvariants = s != nil && s.opts.Check
	eng, st := psim.BuildCity(cfg)
	var sc *Scope
	if s != nil {
		scheds := make([]*sim.Scheduler, 0, len(eng.Shards()))
		for _, sh := range eng.Shards() {
			scheds = append(scheds, sh.Sched)
		}
		sc = s.Open(name, cfg.Horizon, nil, scheds...)
		var parts []engineobs.EngineObserver
		if s.opts.EngineProfile {
			sc.prof = engineobs.NewProfiler(len(scheds))
			parts = append(parts, sc.prof)
		}
		if sc.hb != nil && len(scheds) > 1 {
			parts = append(parts, sc.hb) // beat at every barrier window
		}
		if obs := engineobs.Multi(parts...); obs != nil {
			eng.SetObserver(obs)
		}
	}
	t0 := time.Now()
	eng.Run(sim.Time(cfg.Horizon))
	res := st.Finish(time.Since(t0))
	if cfg.CheckInvariants {
		s.record(CellViolations{Cell: name, Total: int(res.Violations)})
	}
	if report != nil {
		report(res)
	}
	return res, sc.Finish(Fields{
		Experiment: experiment, Topology: "city", Seed: cfg.Seed,
		Params: map[string]float64{
			"shards": float64(res.Shards), "districts": float64(cfg.City.Districts),
			"hosts": float64(cfg.City.HostsPerDistrict), "sources": float64(cfg.SourcesPerHost),
		},
		Counters: map[string]uint64{
			"flows": uint64(res.Flows), "transfers": uint64(res.Transfers),
			"transfer_bytes": uint64(res.TransferBytes), "bulk_bytes": uint64(res.BulkBytes),
		},
	})
}

// armEngine builds the heartbeat and watchdog. A watchdog without a
// heartbeat still gets a quiet one — Beat is what feeds the watchdog's
// progress clock. One scheduler runs the whole horizon as a single
// window, so there the heartbeat pulses off a virtual timer instead of
// the engine's barriers.
func (sc *Scope) armEngine(o *Options) {
	if o.Heartbeat > 0 || o.WatchdogTimeout > 0 {
		cfg := engineobs.HeartbeatConfig{
			Interval: o.Heartbeat, Horizon: sim.Time(sc.horizon), Label: sc.name,
		}
		if o.Heartbeat > 0 {
			cfg.Text = o.Stderr
			if o.MetricsDir != "" {
				sc.jsonl = &stream{path: filepath.Join(o.MetricsDir, sc.name+".heartbeat.jsonl")}
				cfg.JSONL = sc.jsonl
			}
		} else {
			cfg.Interval = o.WatchdogTimeout / 2
		}
		sc.hb = engineobs.NewHeartbeat(cfg, sc.scheds...)
		if len(sc.scheds) == 1 {
			sc.hb.Attach(sc.scheds[0], 0)
		}
	}
	if o.WatchdogTimeout > 0 {
		sc.wd = engineobs.NewWatchdog(engineobs.WatchdogConfig{
			Timeout: o.WatchdogTimeout,
			Out:     o.Stderr,
			// sc.prof is read when a stall fires, after RunCity set it.
			Diagnose: func(w io.Writer) { engineobs.Diagnostics(sc.hb, sc.prof)(w) },
			Flight:   sc.fr,
		})
		sc.hb.SetWatchdog(sc.wd)
		sc.wd.Start()
	}
}

// Registry returns the scope's metrics registry, nil when metrics are
// off; the Instrument* helpers of metrics and faults accept nil.
func (sc *Scope) Registry() *metrics.Registry {
	if sc == nil {
		return nil
	}
	return sc.reg
}

// Sampler returns the scope's virtual-clock sampler, nil when metrics
// are off.
func (sc *Scope) Sampler() *metrics.Sampler {
	if sc == nil {
		return nil
	}
	return sc.samp
}

// Links samples network links (typically the bottlenecks).
func (sc *Scope) Links(ls ...*netem.Link) {
	if sc == nil || sc.samp == nil {
		return
	}
	for _, l := range ls {
		metrics.InstrumentLink(sc.samp, sc.reg, l, metrics.LinkPrefix(l))
	}
}

// Flows attaches measurement flows: sampled sender gauges and arrival
// counters, conformance rules, and trace labels plus the sender probe.
// Call after the sender is attached and before the clock runs.
func (sc *Scope) Flows(fs ...*workload.Flow) {
	if sc == nil {
		return
	}
	for _, f := range fs {
		if sc.samp != nil {
			metrics.InstrumentFlow(sc.samp, sc.reg, f.Flow, metrics.FlowPrefix(f.ID, f.Protocol))
		}
		sc.Flow(f.Flow, f.Protocol)
	}
}

// Flow attaches a flow that is checked and traced but not sampled: a
// connection a workload opens mid-run, or one wired by hand.
func (sc *Scope) Flow(f *tcp.Flow, protocol string) {
	if sc == nil {
		return
	}
	if sc.ck != nil {
		sc.ck.AttachFlow(f, protocol)
	}
	if sc.col != nil {
		sc.col.AttachFlow(f, protocol)
	}
}

// Timeline adopts a fault timeline before it is installed: its faults.*
// counters land in the registry, every applied fault marks the trace
// (scripted faults are expected, so they never dump the flight
// recorder), and Finish lists the applied events in the manifest.
func (sc *Scope) Timeline(tl *faults.Timeline) {
	if sc == nil {
		return
	}
	sc.tls = append(sc.tls, tl)
	if sc.reg != nil {
		tl.Instrument(sc.reg)
	}
	switch {
	case sc.fr != nil:
		sc.fr.ArmTimeline(tl)
	case sc.col != nil:
		prev, c := tl.OnEvent, sc.col
		tl.OnEvent = func(ev faults.Event) {
			if prev != nil {
				prev(ev)
			}
			c.FaultApplied(ev.At, ev.Link, string(ev.Kind)+": "+ev.Note)
		}
	}
}

// DumpOnPanic is the scope's crash hook: defer it right after Open. It
// must be the deferred function itself (recover only works there); on a
// panic with the flight recorder armed it writes a forced dump and
// re-panics.
func (sc *Scope) DumpOnPanic() {
	if sc == nil || sc.fr == nil {
		return
	}
	if r := recover(); r != nil {
		sc.fr.Dump(fmt.Sprintf("panic: %v", r))
		sc.flight.close()
		panic(r)
	}
}

// Fields are the manifest entries only the caller knows; Finish derives
// the rest (name, simulated and wall time, event count, final instrument
// values, series, faults, artifacts).
type Fields struct {
	Experiment, Topology, Variant string
	Seed                          int64
	Params                        map[string]float64
	// Counters adds run totals that no registry instrument carries.
	Counters map[string]uint64
}

// Finish ends the scope in the one order that works: end-of-run
// invariant rules (folded into the session), watchdog and heartbeat
// shutdown, then every export — trace, flight, engine profile, series —
// and last the manifest, whose Artifacts therefore index exactly the
// files this scope wrote. Every export is attempted; the first failure
// is returned.
func (sc *Scope) Finish(f Fields) error {
	if sc == nil {
		return nil
	}
	o := &sc.ses.opts
	var first error
	failed := func(err error) bool {
		if err != nil && first == nil {
			first = fmt.Errorf("%s: %w", sc.name, err)
		}
		return err != nil
	}
	// wrote indexes one companion file, by its path relative to the
	// manifest when there is one.
	var artifacts, logs []string
	wrote := func(path string, err error) bool {
		if failed(err) {
			return false
		}
		rel, rerr := filepath.Rel(o.MetricsDir, path)
		if o.MetricsDir == "" || rerr != nil {
			rel = path
		}
		artifacts = append(artifacts, rel)
		return true
	}

	if sc.ck != nil {
		sc.ck.Finish()
		sc.ses.record(CellViolations{Cell: sc.name, Total: sc.ck.Total(), Violations: sc.ck.Violations()})
	}
	sc.wd.Stop()
	sc.hb.Final()
	if ok, err := sc.jsonl.close(); ok {
		wrote(sc.jsonl.path, err)
	}

	if sc.col != nil {
		events := sc.col.Events() // a copy of the whole ring: take it once
		if sc.jsonPath != "" && wrote(sc.jsonPath, WriteFile(sc.jsonPath, sc.col.WriteChromeTrace)) {
			logs = append(logs, fmt.Sprintf("trace: wrote %s (%d of %d events retained)", sc.jsonPath, len(events), sc.col.Emitted()))
		}
		if sc.tsvPath != "" && wrote(sc.tsvPath, WriteFile(sc.tsvPath, func(w io.Writer) error {
			return span.WriteTSV(w, events)
		})) {
			logs = append(logs, "trace: wrote "+sc.tsvPath)
		}
	}
	if sc.fr != nil {
		line := fmt.Sprintf("flight recorder: %d dump(s)", sc.fr.Dumps())
		if ok, err := sc.flight.close(); ok && wrote(sc.flight.path, err) {
			line += " in " + sc.flight.path
		}
		logs = append(logs, line)
	}
	if sc.prof != nil && o.MetricsDir != "" {
		logs = append(logs, sc.writeProfile(wrote)...)
	}

	if sc.reg != nil {
		m := &metrics.Manifest{
			Name: sc.name, Experiment: f.Experiment, Topology: f.Topology, Variant: f.Variant,
			Seed: f.Seed, Params: f.Params,
			SimSeconds: sc.horizon.Seconds(), WallSeconds: metrics.Wall(sc.start),
			Scheduler: &sim.Stats{},
		}
		for _, s := range sc.scheds {
			m.EventsProcessed += s.Processed()
			m.Scheduler.Add(s.Stats(), sim.Stats{})
		}
		m.FillRates()
		if len(f.Counters) > 0 {
			m.Counters = f.Counters
		}
		m.AddSnapshot(sc.reg.Snapshot())
		for _, tl := range sc.tls {
			for _, ev := range tl.Applied() {
				m.Faults = append(m.Faults, ev.String())
			}
		}
		manifestPath := filepath.Join(o.MetricsDir, sc.name+".manifest.json")
		line := "metrics: wrote " + manifestPath
		var points uint64
		if sc.samp != nil {
			sc.samp.Stop()
		}
		if sc.samp != nil && len(sc.samp.Series()) > 0 { // a scope that sampled nothing leaves no dump
			seriesFile := sc.name + ".series.tsv"
			m.AddSampler(sc.samp, seriesFile)
			failed(WriteFile(filepath.Join(o.MetricsDir, seriesFile), sc.samp.WriteTSV))
			line += " and " + filepath.Join(o.MetricsDir, seriesFile)
			for _, s := range sc.samp.Series() {
				points += uint64(s.Len())
			}
		}
		m.Artifacts = artifacts
		failed(WriteFile(manifestPath, m.WriteJSON))
		logs = append([]string{line}, logs...)

		agg := sc.ses.agg
		agg.Counter("cells_completed").Inc()
		agg.Counter("events_processed").Add(m.EventsProcessed)
		agg.Counter("series_points").Add(points)
	}
	if o.Stdout != nil {
		for _, l := range logs {
			fmt.Fprintln(o.Stdout, l)
		}
	}
	if first != nil {
		sc.ses.mu.Lock()
		if sc.ses.exportErr == nil {
			sc.ses.exportErr = first
		}
		sc.ses.mu.Unlock()
	}
	return first
}

// writeProfile exports the window profile as TSV, summary JSON and a
// Perfetto trace, and returns the two summary lines for Stdout.
func (sc *Scope) writeProfile(wrote func(string, error) bool) []string {
	stem := filepath.Join(sc.ses.opts.MetricsDir, sc.name)
	exports := []struct {
		suffix string
		write  func(io.Writer) error
	}{
		{".engine.tsv", sc.prof.WriteTSV},
		{".engine.json", func(w io.Writer) error { return sc.prof.WriteSummaryJSON(w, 0) }},
		{".engine.trace.json", sc.prof.WriteChromeTrace},
	}
	var paths []string
	for _, ex := range exports {
		if wrote(stem+ex.suffix, WriteFile(stem+ex.suffix, ex.write)) {
			paths = append(paths, stem+ex.suffix)
		}
	}
	s := sc.prof.Summary(0)
	line := fmt.Sprintf("engine profile: %d windows (p50 %.3gms p99 %.3gms wall), busy-ratio %.2f events-ratio %.2f",
		s.Windows, s.P50WindowSeconds*1e3, s.P99WindowSeconds*1e3, s.BusyRatio, s.EventsRatio)
	if s.Straggler >= 0 {
		line += fmt.Sprintf(" — straggler shard %d", s.Straggler)
	}
	return []string{line, "engine profile: wrote " + strings.Join(paths, ", ")}
}
