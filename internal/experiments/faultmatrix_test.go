package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tcppr/internal/faults"
	"tcppr/internal/metrics"
	"tcppr/internal/runobs"
	"tcppr/internal/workload"
)

// shortMatrixConfig is the CI-sized survival matrix: every canned
// scenario, the default protocol set, a 20s run with the fault at 3s.
// Cells are single-flow dumbbells, so even the full cross product stays
// in test-suite territory.
func shortMatrixConfig() FaultMatrixConfig {
	return FaultMatrixConfig{Total: 20 * time.Second, FaultAt: 3 * time.Second, Seed: 1}
}

// TestFaultMatrix runs the full survival matrix and checks its shape and
// the physics every cell must obey.
func TestFaultMatrix(t *testing.T) {
	cfg := shortMatrixConfig()
	res, err := RunFaultMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(faults.ScenarioNames()) * 4
	if len(res.Cells) != wantCells {
		t.Fatalf("matrix has %d cells, want %d (all scenarios x 4 protocols)", len(res.Cells), wantCells)
	}

	byKey := map[string]FaultMatrixCell{}
	for _, c := range res.Cells {
		byKey[c.Scenario+"/"+c.Protocol] = c
	}
	for _, c := range res.Cells {
		if c.Scenario == "none" {
			if c.GoodputMbps < 13 {
				t.Errorf("%s baseline goodput = %.2f Mbps, want ~15", c.Protocol, c.GoodputMbps)
			}
			if c.FaultEvents != 0 {
				t.Errorf("baseline row applied %d faults", c.FaultEvents)
			}
			continue
		}
		if c.FaultEvents == 0 {
			t.Errorf("%s/%s applied no faults", c.Scenario, c.Protocol)
		}
		// Survival: every protocol must come back after every fault.
		if c.Recovery < 0 {
			t.Errorf("%s/%s never recovered within the run", c.Scenario, c.Protocol)
		}
		if c.GoodputMbps <= 0 {
			t.Errorf("%s/%s delivered nothing", c.Scenario, c.Protocol)
		}
		// A faulted run cannot beat the same protocol's healthy run by
		// more than measurement noise.
		if base := byKey["none/"+c.Protocol]; c.GoodputMbps > base.GoodputMbps*1.05 {
			t.Errorf("%s/%s goodput %.2f exceeds its healthy baseline %.2f",
				c.Scenario, c.Protocol, c.GoodputMbps, base.GoodputMbps)
		}
	}

	// The blackout recovers on retransmission timers: nobody restarts
	// faster than the remaining backed-off RTO, and everybody within the
	// run. The 2s outage also has to cost real goodput.
	for _, p := range res.Config.Protocols {
		c := byKey["blackout-2s/"+p]
		if c.Recovery > 10*time.Second {
			t.Errorf("blackout-2s/%s recovery %.3fs, want <= 10s", p, c.Recovery.Seconds())
		}
		if c.RetxSegs == 0 {
			t.Errorf("blackout-2s/%s recovered with zero retransmissions", p)
		}
		if base := byKey["none/"+p]; c.GoodputMbps > base.GoodputMbps*0.95 {
			t.Errorf("blackout-2s/%s goodput %.2f suspiciously close to healthy %.2f",
				p, c.GoodputMbps, base.GoodputMbps)
		}
	}

	// Rendered table: header + one row per cell.
	tab := res.Table()
	if got := len(tab.Rows); got != wantCells {
		t.Errorf("table has %d rows, want %d", got, wantCells)
	}
}

// TestFaultMatrixDeterminism pins reproducibility at the experiment
// level: identical configs produce identical matrices.
func TestFaultMatrixDeterminism(t *testing.T) {
	cfg := FaultMatrixConfig{
		Protocols: []string{workload.TCPPR, workload.NewReno},
		Scenarios: []string{"burst-loss", "loss-ramp"},
		Total:     15 * time.Second,
		Seed:      7,
	}
	a, err := RunFaultMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFaultMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Errorf("cell %d differs across same-seed runs:\n%+v\nvs\n%+v", i, a.Cells[i], b.Cells[i])
		}
	}
}

// TestFaultMatrixManifests checks the observability contract: with
// metrics enabled, each cell writes a manifest whose faults.* counters
// and fault-event list match the scenario, alongside the usual link and
// flow instruments.
func TestFaultMatrixManifests(t *testing.T) {
	dir := t.TempDir()
	cfg := FaultMatrixConfig{
		Protocols: []string{workload.TCPPR},
		Scenarios: []string{"none", "blackout-2s"},
		Total:     10 * time.Second,
		FaultAt:   2 * time.Second,
		Obs:       runobs.NewSession(runobs.Options{MetricsDir: dir}),
	}
	res, err := RunFaultMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells", len(res.Cells))
	}

	load := func(name string) metrics.Manifest {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var m metrics.Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	m := load("faultmatrix_blackout-2s_TCP-PR.manifest.json")
	if got := m.Counters["faults.applied"]; got != 4 {
		t.Errorf("faults.applied = %d, want 4 (down+up on both directions)", got)
	}
	if got := m.Counters["faults.link_down"]; got != 2 {
		t.Errorf("faults.link_down = %d, want 2", got)
	}
	if len(m.Faults) != 4 {
		t.Fatalf("manifest lists %d fault events, want 4:\n%v", len(m.Faults), m.Faults)
	}
	for _, line := range m.Faults {
		if !strings.Contains(line, "link_down") && !strings.Contains(line, "link_up") {
			t.Errorf("fault event line %q names no blackout action", line)
		}
	}
	if _, ok := m.Gauges["link.L-R.blackout_dropped"]; !ok {
		t.Errorf("bottleneck blackout_dropped gauge missing from manifest (have %d gauges)", len(m.Gauges))
	}

	clean := load("faultmatrix_none_TCP-PR.manifest.json")
	if got := clean.Counters["faults.applied"]; got != 0 {
		t.Errorf("fault-free cell has faults.applied = %d", got)
	}
	if len(clean.Faults) != 0 {
		t.Errorf("fault-free cell lists %d fault events", len(clean.Faults))
	}
}
