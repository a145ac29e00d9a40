package runobs

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tcppr/internal/faults"
	"tcppr/internal/metrics"
	"tcppr/internal/psim"
	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/workload"
)

// runCell runs one TCP-PR flow over a single-host dumbbell for 3 s inside
// a scope of ses, with a link blackout at 1 s, and finishes the scope.
func runCell(t *testing.T, ses *Session, name string) *Scope {
	t.Helper()
	sched := sim.NewScheduler()
	db := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
	sc := ses.Open(name, 3*time.Second, db.Net, sched)
	rev := db.Net.FindLink("R", "L")
	sc.Links(db.Bottleneck, rev)
	tl := faults.NewTimeline()
	sc.Timeline(tl)
	tl.Blackout(db.Bottleneck, sim.Time(time.Second), sim.Time(1200*time.Millisecond))
	tl.Install(sched)
	f := tcp.NewFlow(db.Net, 1, db.Src(0), db.Dst(0),
		routing.Static{Path: db.FwdPath(0)}, routing.Static{Path: db.RevPath(0)})
	sc.Flows(workload.NewFlow(f, workload.TCPPR, workload.PRParams{}, 0))
	sched.RunUntil(sim.Time(3 * time.Second))
	if err := sc.Finish(Fields{Experiment: "test", Topology: "dumbbell", Variant: workload.TCPPR, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return sc
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestManifestIndexesEveryFile is the single-index contract: whatever a
// scope wrote under the metrics and trace destinations — trace exports,
// heartbeat JSONL — the manifest lists, resolvable from the manifest's
// own directory; the series dump is indexed through Series[].File.
func TestManifestIndexesEveryFile(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts func(root string) Options
	}{
		{"shared-dir", func(root string) Options {
			return Options{MetricsDir: root, Check: true, TraceDir: root, FlightRecorder: true,
				Heartbeat: time.Millisecond, WatchdogTimeout: time.Minute}
		}},
		{"separate-trace-dir", func(root string) Options {
			return Options{MetricsDir: filepath.Join(root, "m"), TraceDir: filepath.Join(root, "t"),
				Heartbeat: time.Millisecond}
		}},
		{"explicit-files", func(root string) Options {
			return Options{MetricsDir: root, TraceTSV: filepath.Join(root, "sub", "hops.tsv")}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			o := tc.opts(root)
			o.Stderr = &bytes.Buffer{}
			ses := NewSession(o)
			runCell(t, ses, "cell A")
			if err := ses.Err(); err != nil {
				t.Fatal(err)
			}

			m, err := metrics.ReadManifest(filepath.Join(o.MetricsDir, "cell-A.manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			indexed := map[string]bool{filepath.Join(o.MetricsDir, "cell-A.manifest.json"): true}
			for _, a := range m.Artifacts {
				indexed[filepath.Join(o.MetricsDir, a)] = true
			}
			for _, s := range m.Series {
				indexed[filepath.Join(o.MetricsDir, s.File)] = true
			}
			var written int
			err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
				if err != nil || info.IsDir() {
					return err
				}
				written++
				if !indexed[path] {
					t.Errorf("%s was written but the manifest does not index it (artifacts %v)", path, m.Artifacts)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if written != len(indexed) {
				t.Errorf("manifest indexes %d files, %d exist", len(indexed), written)
			}
			if len(m.Faults) != 2 {
				t.Errorf("manifest lists %d applied faults, want the blackout's down+up", len(m.Faults))
			}
		})
	}
}

// TestFlightFileAppearsWithItsFirstDump: an armed recorder on a clean run
// leaves no file; a dump forced from a panic is on disk before the panic
// resumes.
func TestFlightFileAppearsWithItsFirstDump(t *testing.T) {
	dir := t.TempDir()
	flight := filepath.Join(dir, "run.flight.txt")
	var out bytes.Buffer
	ses := NewSession(Options{FlightFile: flight, Check: true, Stdout: &out})
	runCell(t, ses, "clean")
	if _, err := os.Stat(flight); !os.IsNotExist(err) {
		t.Fatalf("clean run left a flight file (err=%v)", err)
	}
	if got := out.String(); got != "flight recorder: 0 dump(s)\n" {
		t.Errorf("summary = %q, want the dump count without a path", got)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("DumpOnPanic swallowed the panic")
			}
		}()
		sched := sim.NewScheduler()
		db := topo.NewDumbbell(sched, topo.DumbbellConfig{Hosts: 1})
		sc := ses.Open("crash", time.Second, db.Net, sched)
		defer sc.DumpOnPanic()
		panic("boom")
	}()
	raw, err := os.ReadFile(flight)
	if err != nil {
		t.Fatalf("panic dump did not land: %v", err)
	}
	if !strings.Contains(string(raw), "panic: boom") {
		t.Errorf("flight file lacks the panic dump:\n%s", raw)
	}
}

// TestNilSessionIsInert: no session, no scope, no telemetry branches at
// the call sites.
func TestNilSessionIsInert(t *testing.T) {
	var ses *Session
	sc := runCell(t, ses, "bare")
	if sc != nil {
		t.Fatalf("nil session opened a scope: %+v", sc)
	}
	if sc.Registry() != nil || sc.Sampler() != nil {
		t.Error("nil scope exposes instruments")
	}
	if ses.Err() != nil || ses.Cells() != 0 || ses.WriteAggregate("x") != nil {
		t.Error("nil session is not inert")
	}
}

// TestSessionConcurrentFold: scopes fold their violation summaries into
// one shared session from parallel workers; the fold must be race-free
// and lossless.
func TestSessionConcurrentFold(t *testing.T) {
	ses := NewSession(Options{Check: true})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ses.record(CellViolations{Cell: "cell", Total: 1})
		}()
	}
	wg.Wait()
	if got := ses.Cells(); got != 64 {
		t.Fatalf("Cells() = %d, want 64", got)
	}
	if got := len(ses.Failures()); got != 64 {
		t.Fatalf("Failures() holds %d cells, want 64", got)
	}
	if err := ses.Err(); err == nil || !strings.Contains(err.Error(), "64 violation(s) in 64 of 64 cell(s)") {
		t.Fatalf("Err() = %v", err)
	}
}

// TestAggregateCountsScopes: the run-level manifest sums over scopes.
func TestAggregateCountsScopes(t *testing.T) {
	dir := t.TempDir()
	ses := NewSession(Options{MetricsDir: dir})
	runCell(t, ses, "a")
	runCell(t, ses, "b")
	if err := ses.WriteAggregate("exp"); err != nil {
		t.Fatal(err)
	}
	agg, err := metrics.ReadManifest(filepath.Join(dir, "exp_run.json"))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Counters["cells_completed"] != 2 || agg.Counters["series_points"] == 0 || agg.EventsProcessed == 0 {
		t.Errorf("aggregate = %+v", agg.Counters)
	}
}

// TestRunCityIndexesEngineArtifacts: a city cell's manifest lists the
// window profile and the heartbeat JSONL, and checking folds the
// per-shard checkers' verdict into the session.
func TestRunCityIndexesEngineArtifacts(t *testing.T) {
	dir := t.TempDir()
	ses := NewSession(Options{
		MetricsDir: dir, Check: true, EngineProfile: true, Heartbeat: time.Millisecond,
		Stderr: &bytes.Buffer{},
	})
	var reported bool
	res, err := ses.RunCity("city_2shard", "city", psim.CityRun{
		City: topo.CityConfig{Districts: 4, HostsPerDistrict: 2}, Shards: 2, Seed: 7,
		Horizon: 300 * time.Millisecond, SourcesPerHost: 1,
	}, func(psim.CityResult) { reported = true })
	if err != nil {
		t.Fatal(err)
	}
	if !reported || res.Events == 0 {
		t.Fatalf("reported=%v events=%d", reported, res.Events)
	}
	if ses.Cells() != 1 || ses.Err() != nil {
		t.Errorf("session: cells=%d err=%v", ses.Cells(), ses.Err())
	}
	m, err := metrics.ReadManifest(filepath.Join(dir, "city_2shard.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"city_2shard.engine.json", "city_2shard.engine.trace.json", "city_2shard.engine.tsv",
		"city_2shard.heartbeat.jsonl",
	}
	got := append([]string(nil), m.Artifacts...)
	sort.Strings(got)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("artifacts = %v, want %v", got, want)
	}
	if files := listDir(t, dir); len(files) != len(want)+1 {
		t.Errorf("directory holds %v, want the manifest plus %v", files, want)
	}
	if m.EventsProcessed != res.Events || m.Counters["flows"] != uint64(res.Flows) || m.Params["shards"] != 2 {
		t.Errorf("manifest totals: events=%d counters=%v params=%v", m.EventsProcessed, m.Counters, m.Params)
	}
	if m.Scheduler == nil || *m.Scheduler != res.Scheduler || res.Scheduler.LanePushes == 0 {
		t.Errorf("manifest scheduler block %+v, the engine's shards total %+v", m.Scheduler, res.Scheduler)
	}
}

func TestProblems(t *testing.T) {
	for _, tc := range []struct {
		name           string
		o              Options
		parallelEngine bool
		want           int
	}{
		{"nothing", Options{}, false, 0},
		{"profile on city with metrics", Options{EngineProfile: true, MetricsDir: "d"}, true, 0},
		{"negative heartbeat", Options{Heartbeat: -1}, true, 1},
		{"negative watchdog", Options{WatchdogTimeout: -1}, true, 1},
		{"profile without engine", Options{EngineProfile: true, MetricsDir: "d"}, false, 1},
		{"profile without metrics", Options{EngineProfile: true}, true, 1},
		{"everything wrong", Options{Heartbeat: -1, WatchdogTimeout: -1, EngineProfile: true}, false, 4},
	} {
		if got := tc.o.Problems(tc.parallelEngine); len(got) != tc.want {
			t.Errorf("%s: %d problem(s) %v, want %d", tc.name, len(got), got, tc.want)
		}
	}
}
