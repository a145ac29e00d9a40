package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30*time.Millisecond, func() { got = append(got, 3) })
	s.At(10*time.Millisecond, func() { got = append(got, 1) })
	s.At(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now() = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameTimestamp(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	if len(got) != 100 {
		t.Fatalf("executed %d events, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-timestamp events ran out of scheduling order: got[%d] = %d", i, v)
		}
	}
}

func TestSchedulerAfterUsesCurrentTime(t *testing.T) {
	s := NewScheduler()
	var fired Time = -1
	s.At(time.Second, func() {
		s.After(500*time.Millisecond, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 1500*time.Millisecond {
		t.Errorf("nested After fired at %v, want 1.5s", fired)
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	ran := false
	e := s.At(time.Second, func() { ran = true })
	if !e.Pending() {
		t.Fatal("event should be pending before Run")
	}
	if !e.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if e.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event must not run")
	}
	if e.Pending() {
		t.Fatal("cancelled event must not be pending")
	}
}

func TestSchedulerCancelFromEvent(t *testing.T) {
	s := NewScheduler()
	ran := false
	var victim Handle
	s.At(time.Second, func() { victim.Cancel() })
	victim = s.At(2*time.Second, func() { ran = true })
	s.Run()
	if ran {
		t.Fatal("event cancelled by an earlier event must not run")
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d
		s.At(d*time.Second, func() { got = append(got, s.Now()) })
	}
	s.RunUntil(2500 * time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("RunUntil ran %d events, want 2", len(got))
	}
	if s.Now() != 2500*time.Millisecond {
		t.Errorf("clock = %v after RunUntil, want 2.5s", s.Now())
	}
	s.Run()
	if len(got) != 4 {
		t.Fatalf("remaining events did not run: %d total", len(got))
	}
}

func TestSchedulerRunUntilBoundaryInclusive(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.At(time.Second, func() { ran = true })
	s.RunUntil(time.Second)
	if !ran {
		t.Fatal("event exactly at the RunUntil boundary must run")
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler()
	s.At(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	s.At(500*time.Millisecond, func() {})
}

func TestSchedulerLenSkipsCancelled(t *testing.T) {
	s := NewScheduler()
	e1 := s.At(time.Second, func() {})
	s.At(2*time.Second, func() {})
	e1.Cancel()
	if got := s.Len(); got != 1 {
		t.Errorf("Len() = %d, want 1", got)
	}
}

func TestSchedulerProcessedCount(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 7; i++ {
		s.At(Time(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Processed() != 7 {
		t.Errorf("Processed() = %d, want 7", s.Processed())
	}
}

// Property: for any batch of events with random timestamps, execution order
// equals the stable sort of (timestamp, insertion index).
func TestSchedulerOrderingProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		if len(stamps) > 512 {
			stamps = stamps[:512]
		}
		s := NewScheduler()
		var got []int
		for i, ts := range stamps {
			i := i
			s.At(Time(ts)*time.Microsecond, func() { got = append(got, i) })
		}
		s.Run()
		want := make([]int, len(stamps))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return stamps[want[a]] < stamps[want[b]] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock never moves backwards, whatever the event mix.
func TestSchedulerMonotonicClockProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		last := Time(0)
		ok := true
		var spawn func()
		n := 0
		spawn = func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
			if n < 200 {
				n++
				s.After(time.Duration(rng.Intn(1000))*time.Microsecond, spawn)
			}
		}
		s.At(0, spawn)
		s.At(0, spawn)
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitSeedIndependence(t *testing.T) {
	seen := make(map[int64]bool)
	for stream := int64(0); stream < 1000; stream++ {
		s := SplitSeed(42, stream)
		if seen[s] {
			t.Fatalf("SplitSeed collision at stream %d", stream)
		}
		seen[s] = true
	}
	if SplitSeed(1, 0) == SplitSeed(2, 0) {
		t.Error("different base seeds should give different derived seeds")
	}
	if SplitSeed(1, 3) != SplitSeed(1, 3) {
		t.Error("SplitSeed must be deterministic")
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 32; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("NewRand with equal seeds must produce identical streams")
		}
	}
}
