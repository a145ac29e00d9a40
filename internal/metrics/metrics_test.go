package metrics

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestRegistryInstrumentIdentity(t *testing.T) {
	r := New()
	c := r.Counter("events")
	c.Add(3)
	if r.Counter("events") != c {
		t.Error("second Counter(\"events\") returned a different instrument")
	}
	if got := r.Counter("events").Value(); got != 3 {
		t.Errorf("counter value = %d, want 3", got)
	}

	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge value = %v, want 5", got)
	}
	r.GaugeFunc("depth", func() float64 { return 42 })
	if got := g.Value(); got != 42 {
		t.Errorf("gauge after GaugeFunc = %v, want 42 (source replaces stored value)", got)
	}

	if got := r.Names(); !reflect.DeepEqual(got, []string{"events", "depth"}) {
		t.Errorf("names = %v, want registration order", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r := New()
	r.Counter("x")
	r.Gauge("x")
}

func TestSeriesRingWraparound(t *testing.T) {
	s := NewSeries("q", 4)
	for i := 0; i < 10; i++ {
		s.Append(time.Duration(i)*time.Second, float64(i))
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	if s.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", s.Dropped())
	}
	// The retained window must be the most recent points, in time order.
	want := []Point{
		{6 * time.Second, 6}, {7 * time.Second, 7},
		{8 * time.Second, 8}, {9 * time.Second, 9},
	}
	if got := s.Points(); !reflect.DeepEqual(got, want) {
		t.Errorf("points = %v, want %v", got, want)
	}
}

func TestSeriesPartialFill(t *testing.T) {
	s := NewSeries("q", 8)
	s.Append(time.Second, 1)
	s.Append(2*time.Second, 2)
	if s.Len() != 2 || s.Dropped() != 0 {
		t.Errorf("len=%d dropped=%d, want 2/0", s.Len(), s.Dropped())
	}
	if p := s.At(1); p.V != 2 {
		t.Errorf("At(1) = %v", p)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	r := New()
	r.Counter("drops").Add(17)
	r.Gauge("cwnd").Set(12.5)

	m := &Manifest{
		Name:            "fig2_dumbbell_n8",
		Experiment:      "fig2",
		Topology:        "dumbbell",
		Variant:         "TCP-PR vs TCP-SACK",
		Seed:            42,
		Params:          map[string]float64{"alpha": 0.995, "beta": 3},
		SimSeconds:      120,
		WallSeconds:     2.5,
		EventsProcessed: 1_000_000,
	}
	m.FillRates()
	if m.EventsPerSec != 400_000 {
		t.Errorf("events/sec = %v, want 400000", m.EventsPerSec)
	}
	m.AddSnapshot(r.Snapshot())

	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"r0->r1":    "r0-r1",
		"Inc by 1":  "Inc-by-1",
		"a/b\\c":    "a-b-c",
		"TCP-PR":    "TCP-PR",
		"fig2_n8.x": "fig2_n8.x",
	} {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSharedRegistryConcurrency exercises the mutex-guarded mode the
// parallel experiment pool uses; run under -race this is the proof the
// shared counters are safe.
func TestSharedRegistryConcurrency(t *testing.T) {
	r := NewShared()
	c := r.Counter("cells")
	g := r.Gauge("progress")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				r.Counter("cells").Value()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v, want 8000", g.Value())
	}
}
