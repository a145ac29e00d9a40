package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"tcppr/internal/faults"
	"tcppr/internal/runobs"
	"tcppr/internal/workload"
)

// shortChurnConfig is the CI-sized churn matrix: every host scenario, the
// headline protocol trio, churn starting at 3s. The 90s default horizon
// stays — the host-dead column needs room for two cold abort ladders.
func shortChurnConfig() ChurnMatrixConfig {
	return ChurnMatrixConfig{
		Protocols: []string{workload.TCPPR, workload.TCPSACK, workload.NewReno},
		FaultAt:   3 * time.Second,
		Seed:      1,
	}
}

// TestChurnMatrix runs the endpoint-churn matrix and checks the physics
// every cell must obey: a sub-RTO blip never aborts anyone, a dead peer
// resolves through the full abort/retry/give-up ladder, and transient
// scenarios recover.
func TestChurnMatrix(t *testing.T) {
	cfg := shortChurnConfig()
	res, err := RunChurnMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(faults.HostScenarioNames()) * len(cfg.Protocols)
	if len(res.Cells) != wantCells {
		t.Fatalf("matrix has %d cells, want %d (all host scenarios x %d protocols)",
			len(res.Cells), wantCells, len(cfg.Protocols))
	}

	attempts := churnRetry.MaxAttempts
	for _, c := range res.Cells {
		if c.FaultEvents == 0 {
			t.Errorf("%s/%s applied no host faults", c.Scenario, c.Protocol)
		}
		if len(c.Events) == 0 {
			t.Errorf("%s/%s logged no connection events", c.Scenario, c.Protocol)
		}
		switch c.Scenario {
		case "host-blip-500ms":
			// The blip is shorter than any R2 ladder: aborting on it would
			// be a protocol bug, and the workload must recover and finish
			// real transfers.
			if c.Aborts != 0 {
				t.Errorf("%s/%s aborted %d time(s) on a sub-RTO blip", c.Scenario, c.Protocol, c.Aborts)
			}
			if c.Recovery < 0 {
				t.Errorf("%s/%s never recovered from the blip", c.Scenario, c.Protocol)
			}
			if c.Transfers == 0 {
				t.Errorf("%s/%s completed no transfers", c.Scenario, c.Protocol)
			}
		case "host-dead":
			// Permanent death: the in-progress transfer walks the full
			// ladder — one abort per connection attempt, a retry between
			// them, then the bounded give-up. Nothing recovers.
			if c.Aborts != attempts {
				t.Errorf("%s/%s aborted %d time(s), want %d (one per attempt)",
					c.Scenario, c.Protocol, c.Aborts, attempts)
			}
			if c.Retries != attempts-1 {
				t.Errorf("%s/%s retried %d time(s), want %d", c.Scenario, c.Protocol, c.Retries, attempts-1)
			}
			if c.GaveUp != 1 {
				t.Errorf("%s/%s gave up %d time(s), want exactly 1", c.Scenario, c.Protocol, c.GaveUp)
			}
			if c.Recovery >= 0 {
				t.Errorf("%s/%s claims recovery %.3fs from a permanent death",
					c.Scenario, c.Protocol, c.Recovery.Seconds())
			}
			if c.SpuriousAborts != 0 {
				t.Errorf("%s/%s counted %d spurious aborts with the peer down",
					c.Scenario, c.Protocol, c.SpuriousAborts)
			}
		case "host-reboot-5s", "host-flap-3x":
			// Transient churn: the workload must come back.
			if c.Recovery < 0 {
				t.Errorf("%s/%s never recovered after the churn window", c.Scenario, c.Protocol)
			}
			if c.GaveUp != 0 {
				t.Errorf("%s/%s gave up through transient churn", c.Scenario, c.Protocol)
			}
		}
	}

	if got := len(res.Table().Rows); got != wantCells {
		t.Errorf("table has %d rows, want %d", got, wantCells)
	}
	var events int
	for _, c := range res.Cells {
		events += len(c.Events)
	}
	if got := len(res.EventsTable().Rows); got != events {
		t.Errorf("events table has %d rows, want %d", got, events)
	}
}

// TestChurnMatrixDeterminism pins the acceptance requirement that the
// abort/retry event log is a pure function of (Seed, cell): two runs with
// the same config must agree cell-for-cell, byte-for-byte.
func TestChurnMatrixDeterminism(t *testing.T) {
	cfg := ChurnMatrixConfig{
		Protocols: []string{workload.TCPPR, workload.NewReno},
		Scenarios: []string{"host-dead", "host-flap-3x"},
		Total:     45 * time.Second,
		FaultAt:   2 * time.Second,
		Seed:      7,
	}
	a, err := RunChurnMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChurnMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if !reflect.DeepEqual(a.Cells[i], b.Cells[i]) {
			t.Errorf("cell %d differs across same-seed runs:\n%+v\nvs\n%+v", i, a.Cells[i], b.Cells[i])
		}
	}

	// A different seed must actually reach the workload.
	cfg.Seed = 8
	c, err := RunChurnMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Cells {
		if !reflect.DeepEqual(a.Cells[i].Events, c.Cells[i].Events) {
			same = false
		}
	}
	if same {
		t.Error("event logs identical under different seeds; Seed not plumbed")
	}
}

// TestChurnMatrixBoundedTermination is the headline robustness guarantee:
// under permanent peer death EVERY registered variant terminates via R2
// abort plus workload give-up in bounded virtual time, with the invariant
// oracle (including the abort rules) attached and clean.
func TestChurnMatrixBoundedTermination(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every variant against a dead host; skipped in -short mode")
	}
	inv := runobs.NewSession(runobs.Options{Check: true})
	cfg := ChurnMatrixConfig{
		Scenarios: []string{"host-dead"}, // Protocols nil → all variants
		FaultAt:   3 * time.Second,
		Seed:      1,
		Obs:       inv,
	}
	res, err := RunChurnMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(workload.AllProtocols()) {
		t.Fatalf("ran %d cells, want one per registered variant (%d)",
			len(res.Cells), len(workload.AllProtocols()))
	}
	for _, c := range res.Cells {
		if c.GaveUp != 1 {
			t.Errorf("%s: GaveUp = %d, want 1 (flow did not terminate in bounded time)",
				c.Protocol, c.GaveUp)
		}
		if c.Aborts == 0 {
			t.Errorf("%s: no aborts against a permanently dead peer", c.Protocol)
		}
		// Every abort in the log must be the R2 retransmission abort with
		// the peer down — no user-timeout or external shortcuts, and none
		// spurious.
		for _, e := range c.Events {
			if !strings.Contains(e, "abort") {
				continue
			}
			if !strings.Contains(e, "cause=r2-retx") {
				t.Errorf("%s: abort event %q is not an R2 retransmission abort", c.Protocol, e)
			}
			if !strings.Contains(e, "peer_up=false") {
				t.Errorf("%s: abort event %q recorded with the peer up", c.Protocol, e)
			}
		}
	}
	if err := inv.Err(); err != nil {
		t.Errorf("invariant oracle: %v", err)
	}
	if inv.Cells() != len(res.Cells) {
		t.Errorf("oracle saw %d cells, want %d", inv.Cells(), len(res.Cells))
	}
}
