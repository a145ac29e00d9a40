package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestThroughput(t *testing.T) {
	// 1 MB over 8 seconds = 1e6 bits/s.
	if got := Throughput(1_000_000, 8*time.Second); !almost(got, 1e6) {
		t.Errorf("Throughput = %v, want 1e6", got)
	}
	if Throughput(100, 0) != 0 {
		t.Error("zero window must yield zero throughput")
	}
	if got := Mbps(15e6); !almost(got, 15) {
		t.Errorf("Mbps = %v, want 15", got)
	}
}

func TestNormalized(t *testing.T) {
	norm := Normalized([]float64{10, 20, 30})
	want := []float64{0.5, 1.0, 1.5}
	for i := range want {
		if !almost(norm[i], want[i]) {
			t.Fatalf("Normalized = %v, want %v", norm, want)
		}
	}
	if Normalized(nil) != nil {
		t.Error("empty input must return nil")
	}
	if Normalized([]float64{0, 0}) != nil {
		t.Error("all-zero input must return nil")
	}
}

func TestMeanMedianStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almost(Mean(xs), 5) {
		t.Errorf("Mean = %v, want 5", Mean(xs))
	}
	if !almost(StdDev(xs), 2) {
		t.Errorf("StdDev = %v, want 2", StdDev(xs))
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty inputs must give 0")
	}
}

func TestCoV(t *testing.T) {
	if got := CoV([]float64{5, 5, 5}); got != 0 {
		t.Errorf("CoV of constant = %v, want 0", got)
	}
	if got := CoV([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almost(got, 0.4) {
		t.Errorf("CoV = %v, want 0.4", got)
	}
	if CoV([]float64{0, 0}) != 0 {
		t.Error("zero-mean CoV must be 0")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v,%v), want (-1,7)", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Error("empty MinMax must be (0,0)")
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); !almost(got, 1) {
		t.Errorf("equal allocation Jain = %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); !almost(got, 0.25) {
		t.Errorf("single-winner Jain = %v, want 0.25", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Error("degenerate Jain must be 0")
	}
}

// Property: normalized throughputs always average to exactly 1.
func TestNormalizedMeanIsOneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		var sum float64
		for _, r := range raw {
			xs = append(xs, float64(r))
			sum += float64(r)
		}
		norm := Normalized(xs)
		if sum == 0 || len(xs) == 0 {
			return norm == nil
		}
		return almost(Mean(norm), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Jain's index lies in [1/n, 1] for any non-zero allocation.
func TestJainBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		xs := make([]float64, 0, len(raw))
		anyPos := false
		for _, r := range raw {
			xs = append(xs, float64(r))
			if r > 0 {
				anyPos = true
			}
		}
		if len(xs) == 0 || !anyPos {
			return true
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
