package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tcppr/internal/metrics"
	"tcppr/internal/runobs"
	"tcppr/internal/span"
	"tcppr/internal/workload"
)

// TestFaultMatrixTraceArtifacts: with tracing enabled, each faultmatrix
// cell exports a Perfetto-valid Chrome trace and a span TSV, and the cell
// manifest lists them as artifacts.
func TestFaultMatrixTraceArtifacts(t *testing.T) {
	dir := t.TempDir()
	cfg := FaultMatrixConfig{
		Protocols: []string{workload.TCPPR},
		Scenarios: []string{"blackout-2s"},
		Total:     10 * time.Second,
		FaultAt:   2 * time.Second,
		Obs: runobs.NewSession(runobs.Options{
			MetricsDir: dir, Check: true, TraceDir: dir, FlightRecorder: true,
		}),
	}
	if _, err := RunFaultMatrix(cfg); err != nil {
		t.Fatal(err)
	}

	stem := "faultmatrix_blackout-2s_TCP-PR"
	tf, err := os.Open(filepath.Join(dir, stem+".trace.json"))
	if err != nil {
		t.Fatalf("trace export missing: %v", err)
	}
	defer tf.Close()
	n, err := span.ValidateChromeTrace(tf)
	if err != nil {
		t.Fatalf("exported trace invalid at event %d: %v", n, err)
	}
	if n == 0 {
		t.Fatal("exported trace is empty")
	}

	tsv, err := os.ReadFile(filepath.Join(dir, stem+".spans.tsv"))
	if err != nil {
		t.Fatalf("span TSV missing: %v", err)
	}
	if !strings.Contains(string(tsv), "\tfault\t") {
		t.Error("span TSV records no fault events for the blackout scenario")
	}
	if !strings.Contains(string(tsv), "\tblackout\n") {
		t.Error("span TSV records no blackout-attributed drop")
	}

	m, err := metrics.ReadManifest(filepath.Join(dir, stem+".manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{stem + ".trace.json": false, stem + ".spans.tsv": false}
	for _, a := range m.Artifacts {
		if _, ok := want[a]; ok {
			want[a] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("manifest artifacts lack %s (have %v)", name, m.Artifacts)
		}
	}

	// A clean conformant run must not have produced flight dumps.
	if _, err := os.Stat(filepath.Join(dir, stem+".flight.txt")); !os.IsNotExist(err) {
		t.Errorf("unexpected flight dump for a clean cell (err=%v)", err)
	}
}

// TestFaultMatrixTraceDeterminism: attaching the tracer must not change
// the matrix outcomes.
func TestFaultMatrixTraceDeterminism(t *testing.T) {
	base := FaultMatrixConfig{
		Protocols: []string{workload.TCPPR, workload.NewReno},
		Scenarios: []string{"burst-loss"},
		Total:     12 * time.Second,
		Seed:      7,
	}
	plain, err := RunFaultMatrix(base)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	traced.Obs = runobs.NewSession(runobs.Options{TraceDir: t.TempDir(), FlightRecorder: true})
	withTrace, err := RunFaultMatrix(traced)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Cells {
		if plain.Cells[i] != withTrace.Cells[i] {
			t.Errorf("cell %d diverges when traced:\n%+v\nvs\n%+v", i, plain.Cells[i], withTrace.Cells[i])
		}
	}
}
