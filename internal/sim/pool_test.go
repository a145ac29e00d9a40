package sim

import (
	"testing"
	"time"
)

// TestEventPoolReuseAcrossFireCycles proves the free list actually cycles:
// after an event fires its slot is reused by the next scheduling, and the
// pool never grows past the peak number of concurrent events.
func TestEventPoolReuseAcrossFireCycles(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 100; i++ {
		s.After(time.Millisecond, func() {})
		if !s.Step() {
			t.Fatal("event did not run")
		}
	}
	if got := s.FreeListLen(); got != 1 {
		t.Errorf("free list holds %d events after 100 fire cycles, want 1 (one slot recycled throughout)", got)
	}
}

// TestEventPoolReuseAcrossCancelCycles covers the cancel path: cancelled
// events are lazily discarded and must land back on the free list too.
func TestEventPoolReuseAcrossCancelCycles(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 50; i++ {
		h := s.After(time.Second, func() { t.Fatal("cancelled event ran") })
		if !h.Cancel() {
			t.Fatal("Cancel on a pending event must report true")
		}
		s.Run() // drains (and recycles) the cancelled entry
	}
	if got := s.FreeListLen(); got != 1 {
		t.Errorf("free list holds %d events after 50 cancel cycles, want 1", got)
	}
}

// TestStaleHandleCannotCancelRecycledEvent is the aliasing hazard the
// generation check exists for: a handle kept after its event fired must
// not affect the unrelated event that now occupies the recycled slot.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	s := NewScheduler()
	h1 := s.At(time.Millisecond, func() {})
	s.Run()
	if h1.Pending() {
		t.Fatal("fired event must not be pending")
	}

	ran := false
	h2 := s.At(time.Second, func() { ran = true })
	// h2 must have recycled h1's slot for the check to bite.
	if h1.Cancel() {
		t.Fatal("stale handle Cancel must report false")
	}
	if !h2.Pending() {
		t.Fatal("stale Cancel must not cancel the slot's new occupant")
	}
	s.Run()
	if !ran {
		t.Fatal("recycled event did not run")
	}
	if h1.At() != 0 {
		t.Errorf("stale handle At() = %v, want 0", h1.At())
	}
}

// TestSchedulerSteadyStateZeroAllocs pins the tentpole property: a
// self-rearming AtFunc chain schedules with zero allocations per event
// once the pool is primed.
func TestSchedulerSteadyStateZeroAllocs(t *testing.T) {
	s := NewScheduler()
	var tick func(any)
	tick = func(any) { s.AfterFunc(time.Microsecond, tick, nil) }
	s.AfterFunc(time.Microsecond, tick, nil)
	s.Step() // prime the pool

	allocs := testing.AllocsPerRun(1000, func() {
		if !s.Step() {
			t.Fatal("queue drained")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state AtFunc scheduling allocates %.1f objects/event, want 0", allocs)
	}
}

// TestAtFuncPassesArgument checks the closure-free variant's plumbing.
func TestAtFuncPassesArgument(t *testing.T) {
	s := NewScheduler()
	type payload struct{ n int }
	got := 0
	fn := func(arg any) { got = arg.(*payload).n }
	s.AtFunc(time.Millisecond, fn, &payload{n: 42})
	s.Run()
	if got != 42 {
		t.Errorf("AtFunc arg = %d, want 42", got)
	}
}

// TestSchedulerHandleSelfCancelDuringFire: cancelling your own handle from
// inside the callback is a harmless no-op.
func TestSchedulerHandleSelfCancelDuringFire(t *testing.T) {
	s := NewScheduler()
	var h Handle
	h = s.At(time.Millisecond, func() {
		if h.Cancel() {
			t.Error("cancelling the currently-firing event must report false")
		}
	})
	s.Run()
}

// TestDebugPoolDoubleReleasePanics proves the debug-mode ownership check
// actually fires: releasing the same event twice must panic instead of
// putting the slot on the free list twice (which would hand the same
// *Event to two future schedule calls).
func TestDebugPoolDoubleReleasePanics(t *testing.T) {
	s := NewScheduler()
	s.SetDebugPool(true)
	s.After(time.Millisecond, func() {})
	if !s.Step() {
		t.Fatal("event did not run")
	}
	e := s.free[len(s.free)-1] // the slot Step just recycled
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic with debug pool checking on")
		}
	}()
	s.release(e)
}

// TestDebugPoolOffDoubleReleaseSilent pins the default: without the debug
// flag the release path stays branch-cheap and does not panic (the test
// repairs the duplicated slot immediately so nothing else trips on it).
func TestDebugPoolOffDoubleReleaseSilent(t *testing.T) {
	s := NewScheduler()
	s.SetDebugPool(false)
	s.After(time.Millisecond, func() {})
	s.Step()
	e := s.free[len(s.free)-1]
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("release panicked with debug checking off: %v", r)
		}
	}()
	s.release(e)
	s.free = s.free[:1] // undo the duplicate entry
}

func TestTimerRearmAndStop(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	if tm.Pending() {
		t.Fatal("fresh timer must not be pending")
	}

	tm.Reset(time.Second)
	tm.Reset(2 * time.Second) // re-arm replaces, not duplicates
	if tm.At() != 2*time.Second {
		t.Fatalf("At() = %v, want 2s", tm.At())
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times after double Reset, want 1", fired)
	}

	tm.ResetAfter(time.Second)
	if !tm.Stop() {
		t.Fatal("Stop on an armed timer must report true")
	}
	if tm.Stop() {
		t.Fatal("Stop on an unarmed timer must report false")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("stopped timer fired (total %d)", fired)
	}

	// The timer survives stop/fire and stays usable.
	tm.ResetAfter(time.Millisecond)
	s.Run()
	if fired != 2 {
		t.Fatalf("re-armed timer did not fire (total %d)", fired)
	}
}

// TestTimerRearmZeroAllocs pins the RTO-path property: re-arming an
// existing timer allocates nothing.
func TestTimerRearmZeroAllocs(t *testing.T) {
	s := NewScheduler()
	tm := NewTimer(s, func() {})
	tm.ResetAfter(time.Microsecond)
	s.Run() // prime the pool

	allocs := testing.AllocsPerRun(1000, func() {
		tm.ResetAfter(time.Microsecond)
		s.Run()
	})
	if allocs != 0 {
		t.Errorf("timer re-arm allocates %.1f objects, want 0", allocs)
	}
}

// TestAtIsZeroOnceNotPending pins the documented contract of Handle.At and
// Timer.At: zero as soon as the occurrence is no longer pending. The
// generation check alone cannot tell — it only changes when the slot is
// reused, not when the event is cancelled or fires.
func TestAtIsZeroOnceNotPending(t *testing.T) {
	s := NewScheduler()
	tm := NewTimer(s, func() {})
	tm.Reset(5 * time.Millisecond)
	if tm.At() != 5*time.Millisecond {
		t.Fatalf("armed timer At() = %v, want 5ms", tm.At())
	}
	tm.Stop()
	if tm.Pending() || tm.At() != 0 {
		t.Errorf("after Stop: Pending() = %v, At() = %v, want false, 0", tm.Pending(), tm.At())
	}
	tm.Reset(7 * time.Millisecond) // revives the stopped entry in place
	if tm.At() != 7*time.Millisecond {
		t.Errorf("revived timer At() = %v, want 7ms", tm.At())
	}
	s.Run()
	if tm.Pending() || tm.At() != 0 {
		t.Errorf("after firing: Pending() = %v, At() = %v, want false, 0", tm.Pending(), tm.At())
	}

	h := s.At(time.Second, func() {})
	h.Cancel()
	if h.At() != 0 {
		t.Errorf("cancelled handle At() = %v, want 0", h.At())
	}
}

// TestTimerResetInPlaceCounters shows the two routes of Timer.Reset in the
// scheduler's counters: a deadline pushed out re-arms the queued entry
// (no push, one sink when it surfaces), a deadline pulled in cancels and
// pushes.
func TestTimerResetInPlaceCounters(t *testing.T) {
	s := NewScheduler()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Reset(10 * time.Millisecond)
	for i := 1; i <= 100; i++ {
		tm.Reset(10*time.Millisecond + Time(i))
	}
	if st := s.Stats(); st.Pushes != 1 || st.Rearms != 100 || st.MaxHeapLen != 1 {
		t.Fatalf("100 later deadlines: %+v, want 1 push, 100 re-arms, heap of 1", st)
	}
	tm.Reset(time.Millisecond) // earlier than the queued key
	if st := s.Stats(); st.Pushes != 2 || st.Rearms != 100 {
		t.Fatalf("earlier deadline: %+v, want a second push and no re-arm", st)
	}
	tm.Reset(20 * time.Millisecond)
	s.Run()
	st := s.Stats()
	if fired != 1 || s.Now() != 20*time.Millisecond {
		t.Fatalf("fired %d times, clock %v; want once at 20ms", fired, s.Now())
	}
	if st.CancelledPops != 1 || st.StaleSinks != 1 || st.Pops != 2 || s.Processed() != 1 {
		t.Fatalf("after Run: %+v processed %d; want 1 cancelled pop, 1 sink, 2 pops, 1 processed", st, s.Processed())
	}
}
