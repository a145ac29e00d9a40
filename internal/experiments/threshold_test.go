package experiments

import (
	"testing"
	"time"

	"tcppr/internal/routing"
	"tcppr/internal/sim"
	"tcppr/internal/tcp"
	"tcppr/internal/topo"
	"tcppr/internal/trace"
	"tcppr/internal/workload"
)

// recordedSamples runs a TCP-PR flow over the ε=0 multipath topology and
// extracts its timing samples.
func recordedSamples(t *testing.T) []sample {
	t.Helper()
	sched := sim.NewScheduler()
	m := topo.NewMultipath(sched, 3, 10*time.Millisecond)
	fwd := routing.NewEpsilon(m.FwdPaths, 0, sim.NewRand(31))
	rev := routing.NewEpsilon(m.RevPaths, 0, sim.NewRand(32))
	f := tcp.NewFlow(m.Net, 1, m.Src, m.Dst, fwd, rev)
	rec := trace.NewRecorder()
	rec.Attach(f)
	workload.NewFlow(f, workload.TCPPR, workload.PRParams{}, 0)
	sched.RunUntil(20 * time.Second)
	samples := extractSamples(rec)
	if len(samples) < 1000 {
		t.Fatalf("extracted only %d samples", len(samples))
	}
	return samples
}

func TestExtractSamplesOrdering(t *testing.T) {
	samples := recordedSamples(t)
	for _, s := range samples {
		if s.ackAt <= s.sentAt {
			t.Fatalf("seq %d acked at %v before sent at %v", s.seq, s.ackAt, s.sentAt)
		}
		if rtt := s.rtt(); rtt < 40*time.Millisecond || rtt > 2*time.Second {
			t.Fatalf("seq %d implausible RTT %v", s.seq, rtt)
		}
	}
}

func TestReplayBetaTradeoff(t *testing.T) {
	samples := recordedSamples(t)
	var res []replayResult
	for _, beta := range []float64{1.05, 2, 3, 5} {
		res = append(res, replay(samples, 0.995, beta, 100))
	}

	// The false-drop rate must be non-increasing in beta, and the paper's
	// beta = 3 must be essentially clean under pure reordering.
	for i := 1; i < len(res); i++ {
		if res[i].falseDropRate() > res[i-1].falseDropRate()+1e-9 {
			t.Errorf("false-drop rate increased with beta: %v", res)
		}
	}
	if fd := res[2].falseDropRate(); fd > 0.001 {
		t.Errorf("beta=3 false-drop rate = %.4f under reordering alone, want ~0", fd)
	}
	// Tight beta trades false drops for headroom.
	if res[0].falseDropRate() == 0 {
		t.Logf("note: even beta=1.05 produced no false drops on this trace")
	}
	if res[3].meanHeadroom <= res[1].meanHeadroom {
		t.Errorf("headroom must grow with beta: %v vs %v", res[3].meanHeadroom, res[1].meanHeadroom)
	}
}

func TestReplayEmptyAndDegenerate(t *testing.T) {
	if r := replay(nil, 0.995, 3, 10); r.samples != 0 || r.falseDropRate() != 0 {
		t.Error("empty replay must be zero-valued")
	}
	one := []sample{{seq: 0, sentAt: 0, ackAt: 100 * time.Millisecond}}
	r := replay(one, 0.995, 3, 0) // cwndHint 0 must be tolerated
	if r.samples != 1 {
		t.Errorf("samples = %d, want 1", r.samples)
	}
	if r.falseDrops != 0 {
		t.Error("first packet is judged against the 3s initial threshold")
	}
}
