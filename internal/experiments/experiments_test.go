package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tcppr/internal/workload"
)

func TestFig2DumbbellFairness(t *testing.T) {
	res := RunFig2(Fig2Config{
		Topology:   "dumbbell",
		FlowCounts: []int{8, 16},
		Durations:  Quick,
	})
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.MeanPR < 0.55 || p.MeanPR > 1.45 {
			t.Errorf("n=%d: TCP-PR mean normalized = %.3f, want ~1", p.Flows, p.MeanPR)
		}
		if p.MeanSACK < 0.55 || p.MeanSACK > 1.45 {
			t.Errorf("n=%d: TCP-SACK mean normalized = %.3f, want ~1", p.Flows, p.MeanSACK)
		}
		if got := len(p.PerFlow[workload.TCPPR]); got != p.Flows/2 {
			t.Errorf("n=%d: %d PR flows recorded, want %d", p.Flows, got, p.Flows/2)
		}
	}
}

func TestFig2ParkingLotFairness(t *testing.T) {
	res := RunFig2(Fig2Config{
		Topology:   "parkinglot",
		FlowCounts: []int{8},
		Durations:  Quick,
	})
	p := res.Points[0]
	if p.MeanPR < 0.5 || p.MeanPR > 1.5 {
		t.Errorf("TCP-PR mean normalized = %.3f, want ~1", p.MeanPR)
	}
	if p.MeanSACK < 0.5 || p.MeanSACK > 1.5 {
		t.Errorf("TCP-SACK mean normalized = %.3f, want ~1", p.MeanSACK)
	}
}

func TestFig3CoVRuns(t *testing.T) {
	res := RunFig3(Fig3Config{
		Topology:       "dumbbell",
		BandwidthsMbps: []float64{5, 2.5},
		Flows:          8,
		Seeds:          2,
		Durations:      Quick,
	})
	if len(res.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(res.Points))
	}
	var lowBWLoss, highBWLoss float64
	for _, p := range res.Points {
		if p.CoVPR < 0 || p.CoVSACK < 0 {
			t.Errorf("negative CoV at bw=%v", p.BandwidthMbps)
		}
		if p.BandwidthMbps == 2.5 {
			lowBWLoss += p.LossRate / 2
		} else {
			highBWLoss += p.LossRate / 2
		}
	}
	if lowBWLoss <= highBWLoss {
		t.Errorf("shrinking the bottleneck must raise the loss rate: 2.5Mbps=%.4f vs 5Mbps=%.4f",
			lowBWLoss, highBWLoss)
	}
}

func TestFig4BetaOneFavorsSACK(t *testing.T) {
	res := RunFig4(Fig4Config{
		Topology:  "dumbbell",
		Alphas:    []float64{0.995},
		Betas:     []float64{1, 3},
		Flows:     8,
		Durations: Quick,
	})
	var atOne, atThree float64
	for _, p := range res.Points {
		switch p.Beta {
		case 1:
			atOne = p.MeanSACK
		case 3:
			atThree = p.MeanSACK
		}
	}
	// The paper: at β=1 TCP-SACK exhibits better throughput; for β>1 the
	// two are nearly identical.
	if atOne <= atThree {
		t.Errorf("TCP-SACK mean normalized at beta=1 (%.3f) should exceed beta=3 (%.3f)", atOne, atThree)
	}
	if atThree < 0.55 || atThree > 1.45 {
		t.Errorf("at beta=3 TCP-SACK mean normalized = %.3f, want ~1", atThree)
	}
}

func TestFig6Shape(t *testing.T) {
	res := RunFig6(Fig6Config{
		Protocols:  []string{workload.TCPPR, workload.DSACKIn1},
		Epsilons:   []float64{0, 500},
		LinkDelays: []time.Duration{10 * time.Millisecond},
		Durations:  Quick,
	})
	get := func(proto string, eps float64) float64 {
		return res.lookup(proto, eps, 10*time.Millisecond)
	}
	// At ε=500 (single path) both protocols are comparable.
	prSingle, dsackSingle := get(workload.TCPPR, 500), get(workload.DSACKIn1, 500)
	if prSingle < 7 || dsackSingle < 7 {
		t.Errorf("single-path throughput too low: PR=%.2f, Inc1=%.2f", prSingle, dsackSingle)
	}
	// At ε=0 TCP-PR aggregates the paths; the dupthresh scheme collapses.
	prMulti, dsackMulti := get(workload.TCPPR, 0), get(workload.DSACKIn1, 0)
	if prMulti < 1.5*prSingle {
		t.Errorf("TCP-PR at eps=0 = %.2f Mbps, want well above single path %.2f", prMulti, prSingle)
	}
	if dsackMulti > prMulti/2 {
		t.Errorf("Inc by 1 at eps=0 = %.2f Mbps should collapse well below TCP-PR %.2f", dsackMulti, prMulti)
	}
}

func TestAblationMemorize(t *testing.T) {
	res := RunAblationMemorize(Quick, nil)
	with, without := res.Rows[0], res.Rows[1]
	if without.Halvings <= with.Halvings {
		t.Errorf("disabling memorize should cause more halvings: %d vs %d",
			without.Halvings, with.Halvings)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"a", "bbbb"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a", "bbbb", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	var csvBuf bytes.Buffer
	if err := tb.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if got := csvBuf.String(); got != "a,bbbb\n1,2\n333,4\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestBuildScenarioUnknownTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown topology must panic")
		}
	}()
	buildScenario("ring", 4)
}
