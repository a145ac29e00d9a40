package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tcppr/internal/sim"
)

func TestSamplerCadence(t *testing.T) {
	sched := sim.NewScheduler()
	sp := NewSampler(sched, 100*time.Millisecond, 64)
	var v float64
	s := sp.Watch("v", New().GaugeFunc("v", func() float64 { return v }).Value)
	sp.Start(0)

	// Drive the source from the simulation itself.
	for i := 1; i <= 5; i++ {
		x := float64(i)
		sched.At(time.Duration(i)*100*time.Millisecond-time.Millisecond, func() { v = x })
	}
	sched.RunUntil(450 * time.Millisecond)

	// Ticks at 0, 100, 200, 300, 400 ms.
	pts := s.Points()
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	for i, p := range pts {
		if p.T != time.Duration(i)*100*time.Millisecond {
			t.Errorf("point %d at %v, want %v", i, p.T, time.Duration(i)*100*time.Millisecond)
		}
		if p.V != float64(i) {
			t.Errorf("point %d = %v, want %v", i, p.V, float64(i))
		}
	}

	sp.Stop()
	sched.RunUntil(time.Second)
	if s.Len() != 5 {
		t.Errorf("points after Stop = %d, want 5", s.Len())
	}
}

func TestSamplerExports(t *testing.T) {
	sched := sim.NewScheduler()
	sp := NewSampler(sched, 0, 0)
	if sp.Interval() != DefaultInterval {
		t.Errorf("default interval = %v", sp.Interval())
	}
	a := 1.0
	sp.Watch("a", func() float64 { return a })
	sp.Watch("b", func() float64 { return 2 * a })
	sp.Start(0)
	sched.RunUntil(250 * time.Millisecond)

	if ss := sp.Series(); len(ss) != 2 || ss[1].Name() != "b" {
		t.Error("Series misbehaves")
	}

	var tsv bytes.Buffer
	if err := sp.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tsv.String()), "\n")
	// 3 ticks (0, 100, 200 ms) x 2 series.
	if len(lines) != 6 {
		t.Fatalf("TSV lines = %d, want 6:\n%s", len(lines), tsv.String())
	}
	if !strings.HasPrefix(lines[0], "0.000000\ta\t1") {
		t.Errorf("line 0 = %q", lines[0])
	}

	m := &Manifest{Name: "t"}
	m.AddSampler(sp, "t.series.tsv")
	if len(m.Series) != 2 || m.Series[0].Points != 3 || m.Series[0].File != "t.series.tsv" {
		t.Errorf("manifest series = %+v", m.Series)
	}
	if m.SamplerInterval != DefaultInterval.Seconds() {
		t.Errorf("manifest interval = %v", m.SamplerInterval)
	}
}

func TestSamplerDuplicateWatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Watch must panic")
		}
	}()
	sp := NewSampler(sim.NewScheduler(), 0, 0)
	sp.Watch("x", func() float64 { return 0 })
	sp.Watch("x", func() float64 { return 1 })
}
