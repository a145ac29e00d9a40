package experiments

import (
	"testing"

	"tcppr/internal/workload"
)

func TestRobustnessGrid(t *testing.T) {
	res := RunRobustness(Quick, nil)
	get := func(sc RobustnessScenario, p string) float64 { return res.Rows[sc][p] }

	// Baseline: everyone saturates the 15 Mbps bottleneck.
	for _, p := range res.Protocols {
		if v := get(ScenarioBaseline, p); v < 13 {
			t.Errorf("baseline %s = %.2f Mbps, want ~15", p, v)
		}
	}
	// ACK loss: cumulative acking makes everyone tolerant, TCP-PR
	// included (§3's claim).
	if v := get(ScenarioAckLoss, workload.TCPPR); v < 12 {
		t.Errorf("TCP-PR under ACK loss = %.2f Mbps, want near baseline", v)
	}
	// Delayed ACKs: TCP-PR must work with an unmodified delack receiver.
	if v := get(ScenarioDelayedAcks, workload.TCPPR); v < 12 {
		t.Errorf("TCP-PR with delayed ACKs = %.2f Mbps, want near baseline", v)
	}
	// Per-packet jitter (single-path reordering, the DiffServ case):
	// TCP-PR rides through; TCP-SACK collapses.
	pr, sk := get(ScenarioJitter, workload.TCPPR), get(ScenarioJitter, workload.TCPSACK)
	if pr < 10 {
		t.Errorf("TCP-PR under jitter = %.2f Mbps, want > 10", pr)
	}
	if sk > pr/3 {
		t.Errorf("TCP-SACK under jitter = %.2f Mbps, want collapse well below TCP-PR %.2f", sk, pr)
	}
	// RED: everyone keeps most of the throughput (shape check only).
	for _, p := range res.Protocols {
		if v := get(ScenarioRED, p); v < 7 {
			t.Errorf("%s under RED = %.2f Mbps, want > 7", p, v)
		}
	}
}
