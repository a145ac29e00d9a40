// Command experiments regenerates the paper's evaluation figures.
//
// Usage:
//
//	experiments [-run name] [-fig n] [-list] [-quick] [-csv dir]
//	            [-metrics dir] [-trace dir] [-flight-recorder]
//	            [-parallel n] [-seed n] [-shards n] [-repair name] [-check]
//	            [-fuzz n] [-fuzz-seed n] [-progress]
//	            [-heartbeat d] [-engine-profile] [-watchdog-timeout d]
//	            [-cpuprofile file] [-memprofile file]
//
// Every experiment is a registered experiments.Spec; -list prints the
// registry with one-line descriptions. -run selects one by name (default
// all, in registry order); -fig N is shorthand for -run figN. -quick
// substitutes shortened simulation windows (useful for smoke runs); the
// default reproduces the paper's 60-second steady-state measurement
// protocol. With -csv the raw per-point data are also written as CSV files
// into the given directory. With -metrics the figures also emit one
// time-series dump (<cell>.series.tsv: cwnd, ssthresh, RTT estimates,
// queue depth, drops) and one run manifest (<cell>.manifest.json: seed,
// topology, parameters, events/sec, final counters) per simulation cell,
// plus a run-level aggregate. -parallel caps the number of concurrent
// simulation cells (default: one per CPU); use -parallel 1 together with
// -cpuprofile for cleanly attributable profiles.
//
// With -trace every simulation cell also writes one Perfetto-loadable
// Chrome trace (<cell>.trace.json) and one span TSV (<cell>.spans.tsv)
// into the directory; see TRACING.md. Each cell's manifest indexes every
// companion file the cell wrote.
//
// -shards pins the sharded-city experiment (-run city) to one shard count
// instead of its default 1-vs-4 scaling sweep; -repair pins the
// repair-middlebox matrix (-run repairmatrix) to one repair scenario
// instead of its default {none, repair, repair-tight} sweep. Other
// experiments ignore them.
//
// -progress prints one start and one done line per simulation cell of
// every experiment to stderr — a long -parallel run stops looking hung.
// -heartbeat, -engine-profile, and -watchdog-timeout arm the
// internal/engineobs telemetry stack: live progress beats (text on
// stderr, JSON lines in -metrics), per-shard window profiles with a
// load-imbalance summary and Perfetto shard lanes (in -metrics), and a
// stall watchdog that aborts a wedged cell with diagnostics instead of
// hanging CI. They target the parallel engine, so they need a -run that
// drives it (city, or all).
//
// -check attaches the internal/invariant conformance oracle to every
// simulation cell; any violation fails the run with a nonzero exit.
// -fuzz N runs N randomized invariant-checked scenarios (topology ×
// protocol mix × fault timeline) instead of the figure experiments, and
// -fuzz-seed S replays exactly one such scenario by seed — the seed a
// failed fuzz run prints. -flight-recorder arms the internal/span flight
// recorder: during fuzz runs and seed replays every violation dumps the
// causal trail of the implicated packet to stderr, and with -trace each
// cell's dumps land in <cell>.flight.txt. It needs one of -trace, -fuzz
// or -fuzz-seed.
//
// A contradictory or out-of-range flag set is rejected up front, one
// "experiments:" line per problem on stderr and exit status 2, before any
// file is created.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tcppr/internal/engineobs"
	"tcppr/internal/experiments"
	"tcppr/internal/invariant/fuzzer"
	"tcppr/internal/netem"
	"tcppr/internal/profiling"
	"tcppr/internal/runobs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: parse and validate args, run the selected
// experiments, and return the exit status (0 ok, 1 a run failed, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runName := fs.String("run", "all", "experiment to run (see -list), or all")
	fig := fs.Int("fig", 0, "shorthand: -fig 2 is -run fig2")
	list := fs.Bool("list", false, "list registered experiments and exit")
	quick := fs.Bool("quick", false, "use shortened simulation windows")
	csvDir := fs.String("csv", "", "directory to write per-point CSV files into")
	parallel := fs.Int("parallel", 0, "max concurrent simulation cells (0 = one per CPU)")
	seed := fs.Int64("seed", 0, "base seed override for seeded experiments (0 = default)")
	shards := fs.Int("shards", 0, "pin the city experiment to one shard count (0 = its default sweep)")
	repair := fs.String("repair", "", "pin the repairmatrix experiment to one repair scenario (empty = its default sweep)")
	fuzz := fs.Int("fuzz", 0, "run N randomized invariant-checked scenarios instead of experiments")
	fuzzSeed := fs.Int64("fuzz-seed", 0, "replay one fuzz scenario by seed and report its violations")
	progress := fs.Bool("progress", false, "print per-cell start/done lines for parallel sweeps to stderr")
	obs := runobs.RegisterFlags(fs)
	fs.StringVar(&obs.MetricsDir, "metrics", "", "directory to write per-cell time series + run manifests into")
	fs.BoolVar(&obs.Check, "check", false, "attach the invariant oracle to every cell; violations fail the run")
	fs.StringVar(&obs.TraceDir, "trace", "", "directory to write per-cell Perfetto traces + span TSVs into")
	fs.BoolVar(&obs.FlightRecorder, "flight-recorder", false, "arm the flight recorder: violations dump causal trails (with -trace or -fuzz/-fuzz-seed)")
	prof := profiling.Register(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	// Validate the whole flag set up front, reporting every problem at
	// once (the tcpsim pattern): a bad invocation dies with a usage error
	// here, not a panic halfway into an hour-long sweep.
	if *fig != 0 {
		*runName = fmt.Sprintf("fig%d", *fig)
	}
	drivesEngine := *runName == "city" || *runName == "all"
	bad := obs.Problems(drivesEngine)
	reject := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if *parallel < 0 {
		reject("-parallel cannot be negative, got %d", *parallel)
	}
	if *shards < 0 {
		reject("-shards cannot be negative, got %d", *shards)
	}
	if *fuzz < 0 {
		reject("-fuzz cannot be negative, got %d", *fuzz)
	}
	if *repair != "" {
		if _, err := netem.RepairScenarioByName(*repair); err != nil {
			reject("%v", err)
		}
	}
	if (obs.Heartbeat > 0 || obs.WatchdogTimeout > 0) && !drivesEngine {
		reject("-heartbeat/-watchdog-timeout watch the parallel engine; -run %s never drives it (use -run city or all)", *runName)
	}
	if obs.FlightRecorder && obs.TraceDir == "" && *fuzz == 0 && *fuzzSeed == 0 {
		reject("-flight-recorder needs somewhere to dump: add -trace, -fuzz or -fuzz-seed")
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "csv", "metrics", "trace":
			if f.Value.String() == "" {
				reject("-%s was set to an empty path; pass a real directory or drop the flag", f.Name)
			}
		}
	})
	if len(bad) > 0 {
		for _, msg := range bad {
			fmt.Fprintln(stderr, "experiments:", msg)
		}
		fmt.Fprintln(stderr, "usage: see experiments -h")
		return 2
	}

	if *list {
		for _, s := range experiments.Registry() {
			fmt.Fprintf(stdout, "  %-18s %s\n", s.Name, s.Describe)
		}
		return 0
	}
	if *fuzzSeed != 0 || *fuzz > 0 {
		return runFuzz(*fuzz, *fuzzSeed, *seed, obs.FlightRecorder, stdout, stderr)
	}

	specs := experiments.Registry()
	if *runName != "all" {
		s, ok := experiments.Lookup(*runName)
		if !ok {
			return fail(fmt.Errorf("unknown experiment %q (valid: %s, all)",
				*runName, strings.Join(experiments.Names(), ", ")))
		}
		specs = []experiments.Spec{s}
	}
	// Fail on an uncreatable output directory now, not after the sweep.
	for _, dir := range []string{*csvDir, obs.MetricsDir, obs.TraceDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return fail(err)
			}
		}
	}

	experiments.SetParallelism(*parallel)
	if *progress {
		// One sink shared by every worker goroutine; SyncWriter keeps the
		// lines whole under -parallel.
		pw := engineobs.NewSyncWriter(stderr)
		experiments.SetProgress(func(format string, args ...any) {
			fmt.Fprintf(pw, "experiments: "+format+"\n", args...)
		})
		defer experiments.SetProgress(nil)
	}
	obs.Stderr = stderr
	cfg := experiments.RunConfig{
		Seed: *seed, Shards: *shards, Repair: *repair, CSVDir: *csvDir,
		Obs: runobs.NewSession(*obs),
	}
	if *quick {
		cfg.Durations = experiments.Quick
	}

	stopProf, err := prof.Start()
	if err != nil {
		return fail(err)
	}
	for _, s := range specs {
		start := time.Now()
		tables, err := s.Run(cfg)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", s.Name, err))
		}
		for _, t := range tables {
			if err := t.Fprint(stdout); err != nil {
				return fail(err)
			}
			fmt.Fprintf(stdout, "(%s in %.1fs)\n\n", firstWord(t.Title), time.Since(start).Seconds())
		}
	}
	if err := stopProf(); err != nil {
		return fail(err)
	}
	return 0
}

// runFuzz runs a fuzzing campaign of n randomized scenarios, or — with
// replay set — re-runs the single scenario a failed campaign named by its
// seed. Violations go to stderr (with the flight recorder armed, each one
// also dumps the causal trail of the implicated packet) and exit 1.
func runFuzz(n int, replay, seed int64, flightRec bool, stdout, stderr io.Writer) int {
	cfg := fuzzer.Config{
		Runs: n,
		Seed: seed,
		Log:  func(format string, args ...any) { fmt.Fprintf(stdout, format+"\n", args...) },
	}
	if flightRec {
		cfg.FlightRecorder = stderr
	}
	if replay != 0 {
		desc, c := fuzzer.RunOne(replay, cfg)
		fmt.Fprintf(stdout, "seed %d: %s\n", replay, desc)
		if c.Total() == 0 {
			fmt.Fprintln(stdout, "no violations")
			return 0
		}
		for _, v := range c.Violations() {
			fmt.Fprintln(stderr, "  "+v.String())
		}
		fmt.Fprintf(stderr, "experiments: %d violation(s)\n", c.Total())
		return 1
	}
	res := fuzzer.Run(cfg)
	if err := res.Err(); err != nil {
		for _, f := range res.Failures {
			fmt.Fprintln(stderr, f.String())
		}
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	fmt.Fprintf(stdout, "fuzz: %d scenarios, 0 violations\n", res.Runs)
	return 0
}

func firstWord(s string) string {
	if i := strings.IndexAny(s, " :"); i > 0 {
		return s[:i]
	}
	return s
}
