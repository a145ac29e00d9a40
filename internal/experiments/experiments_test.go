package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"tcppr/internal/stats"
	"tcppr/internal/workload"
)

func TestFig2DumbbellFairness(t *testing.T) {
	cells, err := runSweep(fig2Sweep(Fig2Config{
		Topologies: []string{"dumbbell"},
		FlowCounts: []int{8, 16},
		Durations:  Quick,
	}), mixedCell)
	if err != nil || len(cells) != 2 {
		t.Fatalf("cells = %d (%v), want 2", len(cells), err)
	}
	for _, o := range cells {
		if pr := stats.Mean(o.pr); pr < 0.55 || pr > 1.45 {
			t.Errorf("n=%d: TCP-PR mean normalized = %.3f, want ~1", o.flows, pr)
		}
		if sack := stats.Mean(o.sack); sack < 0.55 || sack > 1.45 {
			t.Errorf("n=%d: TCP-SACK mean normalized = %.3f, want ~1", o.flows, sack)
		}
		if got := len(o.pr); got != o.flows/2 {
			t.Errorf("n=%d: %d PR flows recorded, want %d", o.flows, got, o.flows/2)
		}
	}
}

func TestFig2ParkingLotFairness(t *testing.T) {
	cells, err := runSweep(fig2Sweep(Fig2Config{
		Topologies: []string{"parkinglot"},
		FlowCounts: []int{8},
		Durations:  Quick,
	}), mixedCell)
	if err != nil {
		t.Fatal(err)
	}
	o := cells[0]
	if pr := stats.Mean(o.pr); pr < 0.5 || pr > 1.5 {
		t.Errorf("TCP-PR mean normalized = %.3f, want ~1", pr)
	}
	if sack := stats.Mean(o.sack); sack < 0.5 || sack > 1.5 {
		t.Errorf("TCP-SACK mean normalized = %.3f, want ~1", sack)
	}
}

func TestFig3CoVRuns(t *testing.T) {
	cells, err := runSweep(fig3Sweep(Fig3Config{
		Topologies:     []string{"dumbbell"},
		BandwidthsMbps: []float64{5, 2.5},
		Flows:          8,
		Seeds:          2,
		Durations:      Quick,
	}), mixedCell)
	if err != nil || len(cells) != 4 {
		t.Fatalf("cells = %d (%v), want 4", len(cells), err)
	}
	var lowBWLoss, highBWLoss float64
	for _, o := range cells {
		if stats.CoV(o.pr) < 0 || stats.CoV(o.sack) < 0 {
			t.Errorf("negative CoV at bw=%v", o.bwMbps)
		}
		if o.bwMbps == 2.5 {
			lowBWLoss += o.loss / 2
		} else {
			highBWLoss += o.loss / 2
		}
	}
	if lowBWLoss <= highBWLoss {
		t.Errorf("shrinking the bottleneck must raise the loss rate: 2.5Mbps=%.4f vs 5Mbps=%.4f",
			lowBWLoss, highBWLoss)
	}
}

func TestFig4BetaOneFavorsSACK(t *testing.T) {
	cells, err := runSweep(fig4Sweep([]string{"dumbbell"}, []float64{0.995}, []float64{1, 3}, 8, Quick, nil), mixedCell)
	if err != nil {
		t.Fatal(err)
	}
	var atOne, atThree float64
	for _, o := range cells {
		switch o.params.Beta {
		case 1:
			atOne = stats.Mean(o.sack)
		case 3:
			atThree = stats.Mean(o.sack)
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
	pts, err := RunFig6(Fig6Config{
		Protocols:  []string{workload.TCPPR, workload.DSACKIn1},
		Epsilons:   []float64{0, 500},
		LinkDelays: []time.Duration{10 * time.Millisecond},
		Durations:  Quick,
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func(proto string, eps float64) float64 {
		for _, p := range pts {
			if p.Protocol == proto && p.Epsilon == eps {
				return p.Mbps
			}
		}
		t.Fatalf("no cell %s eps=%g", proto, eps)
		return 0
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
	spec, _ := Lookup("ablation-memorize")
	tables, err := spec.Run(RunConfig{Durations: Quick})
	if err != nil {
		t.Fatal(err)
	}
	// Rows: memorize (paper), no memorize; column 2 is halvings.
	with, without := tables[0].Rows[0][2], tables[0].Rows[1][2]
	w, _ := strconv.Atoi(with)
	wo, _ := strconv.Atoi(without)
	if wo <= w {
		t.Errorf("disabling memorize should cause more halvings: %d vs %d", wo, w)
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
