package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tcppr/internal/metrics"
	"tcppr/internal/runobs"
)

// TestMetricsDeterminism is the subsystem's central guarantee: observation
// must not perturb the simulation. A Fig 2 cell run with the sampler and
// exporters enabled must produce byte-identical results to the same cell
// run bare.
func TestMetricsDeterminism(t *testing.T) {
	base := Fig2Config{Topology: "dumbbell", FlowCounts: []int{8}, Durations: Quick}

	bare := RunFig2(base)

	withMetrics := base
	withMetrics.Obs = runobs.NewSession(runobs.Options{MetricsDir: t.TempDir()})
	observed := RunFig2(withMetrics)

	if !reflect.DeepEqual(bare.Points, observed.Points) {
		t.Fatalf("metrics changed simulation results:\nbare:     %+v\nobserved: %+v",
			bare.Points, observed.Points)
	}
}

// TestMetricsCellArtifacts checks that an instrumented Fig 2 cell writes a
// readable manifest and a series dump containing at least the cwnd and
// queue-depth series, plus the run-level aggregate.
func TestMetricsCellArtifacts(t *testing.T) {
	dir := t.TempDir()
	mopts := runobs.NewSession(runobs.Options{MetricsDir: dir})
	RunFig2(Fig2Config{Topology: "dumbbell", FlowCounts: []int{4}, Durations: Quick, Obs: mopts})

	man, err := metrics.ReadManifest(filepath.Join(dir, "fig2_dumbbell_n4.manifest.json"))
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if man.Experiment != "fig2" || man.Topology != "dumbbell" {
		t.Errorf("manifest identity = %q/%q, want fig2/dumbbell", man.Experiment, man.Topology)
	}
	if man.EventsProcessed == 0 || man.EventsPerSec == 0 {
		t.Errorf("manifest rates not filled: events=%d events/sec=%g", man.EventsProcessed, man.EventsPerSec)
	}
	if man.Params["flows"] != 4 {
		t.Errorf("Params[flows] = %g, want 4", man.Params["flows"])
	}
	var haveCwnd, haveQueue bool
	for _, s := range man.Series {
		if strings.HasSuffix(s.Name, ".cwnd") && s.Points > 0 {
			haveCwnd = true
		}
		if strings.HasSuffix(s.Name, ".queue_len") && s.Points > 0 {
			haveQueue = true
		}
	}
	if !haveCwnd || !haveQueue {
		t.Errorf("manifest series missing cwnd (%v) or queue_len (%v): %+v", haveCwnd, haveQueue, man.Series)
	}

	tsv, err := os.ReadFile(filepath.Join(dir, "fig2_dumbbell_n4.series.tsv"))
	if err != nil {
		t.Fatalf("series dump: %v", err)
	}
	if !strings.Contains(string(tsv), ".cwnd\t") || !strings.Contains(string(tsv), ".queue_len\t") {
		t.Errorf("series TSV missing cwnd or queue_len columns")
	}

	if err := mopts.WriteAggregate("fig2"); err != nil {
		t.Fatalf("WriteAggregate: %v", err)
	}
	agg, err := metrics.ReadManifest(filepath.Join(dir, "fig2_run.json"))
	if err != nil {
		t.Fatalf("ReadManifest(aggregate): %v", err)
	}
	if agg.Counters["cells_completed"] != 1 {
		t.Errorf("aggregate cells_completed = %d, want 1", agg.Counters["cells_completed"])
	}
	if agg.Counters["series_points"] == 0 {
		t.Errorf("aggregate series_points = 0, want > 0")
	}
}
