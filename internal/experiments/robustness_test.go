package experiments

import (
	"testing"

	"tcppr/internal/workload"
)

func TestRobustnessGrid(t *testing.T) {
	mbps, err := runSweep(robustnessSweep(Quick, nil), robustnessCell)
	if err != nil {
		t.Fatal(err)
	}
	protocols := robustnessProtocols
	get := func(sc, p string) float64 {
		for i, k := range robustnessScenarios {
			for j, q := range protocols {
				if k == sc && q == p {
					return mbps[i*len(protocols)+j]
				}
			}
		}
		t.Fatalf("no cell %s/%s", sc, p)
		return 0
	}

	// Baseline: everyone saturates the 15 Mbps bottleneck.
	for _, p := range protocols {
		if v := get("baseline", p); v < 13 {
			t.Errorf("baseline %s = %.2f Mbps, want ~15", p, v)
		}
	}
	// ACK loss: cumulative acking makes everyone tolerant, TCP-PR
	// included (§3's claim).
	if v := get("ack loss 10%", workload.TCPPR); v < 12 {
		t.Errorf("TCP-PR under ACK loss = %.2f Mbps, want near baseline", v)
	}
	// Delayed ACKs: TCP-PR must work with an unmodified delack receiver.
	if v := get("delayed ACKs", workload.TCPPR); v < 12 {
		t.Errorf("TCP-PR with delayed ACKs = %.2f Mbps, want near baseline", v)
	}
	// Per-packet jitter (single-path reordering, the DiffServ case):
	// TCP-PR rides through; TCP-SACK collapses.
	pr, sk := get("30ms jitter", workload.TCPPR), get("30ms jitter", workload.TCPSACK)
	if pr < 10 {
		t.Errorf("TCP-PR under jitter = %.2f Mbps, want > 10", pr)
	}
	if sk > pr/3 {
		t.Errorf("TCP-SACK under jitter = %.2f Mbps, want collapse well below TCP-PR %.2f", sk, pr)
	}
	// RED: everyone keeps most of the throughput (shape check only).
	for _, p := range protocols {
		if v := get("RED queue", p); v < 7 {
			t.Errorf("%s under RED = %.2f Mbps, want > 7", p, v)
		}
	}
}
