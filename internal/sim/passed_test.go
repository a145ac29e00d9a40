package sim

import "testing"

// wantPassed asserts one Passed answer.
func wantPassed(t *testing.T, s *Scheduler, where string, at Time, seq uint64, want bool) {
	t.Helper()
	if got := s.Passed(at, seq); got != want {
		t.Errorf("%s: Passed(%v, %d) = %v, want %v", where, at, seq, got, want)
	}
}

// TestPassedInsideAnEvent: from inside a callback a stamped key has passed
// exactly when it sorts before the firing event's own key — earlier time,
// or the same time and a sequence number drawn before the event was
// scheduled.
func TestPassedInsideAnEvent(t *testing.T) {
	s := NewScheduler()
	before := s.Stamp()
	wantPassed(t, s, "before any run", 0, before, false)
	s.At(5, func() {
		inside := s.Stamp()
		wantPassed(t, s, "inside", 5, before, true)
		wantPassed(t, s, "inside", 5, inside, false)
		wantPassed(t, s, "inside", 4, inside, true)
		wantPassed(t, s, "inside", 6, before, false)
	})
	after := s.Stamp()
	s.At(5, func() { wantPassed(t, s, "second event", 5, after, true) })
	s.Run()
	if s.Processed() != 2 {
		t.Fatalf("Processed() = %d: a Stamp must not schedule anything", s.Processed())
	}
}

// TestPassedAfterRunUntil: RunUntil(t) leaves nothing at or before t, so
// every key drawn so far with a time up to t has passed — and a key drawn
// afterwards at t has not, because an event scheduled there would still be
// waiting. A horizon behind the clock changes nothing.
func TestPassedAfterRunUntil(t *testing.T) {
	s := NewScheduler()
	var inside uint64
	s.At(5, func() { inside = s.Stamp() })
	s.At(9, func() {})
	s.RunUntil(7)
	wantPassed(t, s, "after RunUntil(7)", 5, inside, true)
	wantPassed(t, s, "after RunUntil(7)", 7, inside, true)
	wantPassed(t, s, "after RunUntil(7)", 8, inside, false)
	late := s.Stamp()
	wantPassed(t, s, "drawn after the drain", 7, late, false)
	wantPassed(t, s, "drawn after the drain", 6, late, true)
	s.RunUntil(3)
	if s.Now() != 7 {
		t.Fatalf("RunUntil(3) moved the clock to %v", s.Now())
	}
	wantPassed(t, s, "after RunUntil(3)", 7, late, false)
	s.RunUntil(7)
	wantPassed(t, s, "after a second RunUntil(7)", 7, late, true)
}

// TestPassedAfterRun: Run leaves nothing at all, so a key the last event
// drew at its own time has passed once Run returns.
func TestPassedAfterRun(t *testing.T) {
	s := NewScheduler()
	var inside uint64
	s.At(5, func() {
		inside = s.Stamp()
		wantPassed(t, s, "inside", 5, inside, false)
	})
	s.Run()
	wantPassed(t, s, "after Run", 5, inside, true)
	wantPassed(t, s, "after Run", 6, inside, false)
}

// TestPassedAfterStep: Step stops the clock at the event it fired, so after
// the first of two events of one timestamp a key between theirs has not
// passed, while a RunUntil past them drains it.
func TestPassedAfterStep(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(5, func() { fired++ })
	between := s.Stamp()
	s.At(5, func() { fired++ })
	s.At(9, func() { fired++ })
	if !s.Step() || fired != 1 {
		t.Fatalf("Step fired %d events, want 1", fired)
	}
	wantPassed(t, s, "stopped mid-timestamp", 5, between, false)
	wantPassed(t, s, "stopped mid-timestamp", 4, between, true)
	s.RunUntil(7)
	if fired != 2 || s.Now() != 7 {
		t.Fatalf("fired %d, now %v, want 2 and 7", fired, s.Now())
	}
	wantPassed(t, s, "drained to 7", 5, between, true)
	wantPassed(t, s, "drained to 7", 9, between, false)
}

// TestPassedInsideARearmedTimer: a timer pushed out in place keeps its
// older heap key until it surfaces, but fires under the sequence number the
// Reset drew; that, not the stale key, is what stamped keys compare with.
func TestPassedInsideARearmedTimer(t *testing.T) {
	s := NewScheduler()
	var beforeReset, afterReset uint64
	tm := NewTimer(s, func() {
		wantPassed(t, s, "inside the timer", 8, beforeReset, true)
		wantPassed(t, s, "inside the timer", 8, afterReset, false)
	})
	tm.Reset(5)
	beforeReset = s.Stamp()
	tm.Reset(8)
	if s.Stats().Rearms != 1 {
		t.Fatalf("the second Reset was not served in place: %+v", s.Stats())
	}
	afterReset = s.Stamp()
	s.Run()
	if s.Processed() != 1 {
		t.Fatalf("Processed() = %d, want 1", s.Processed())
	}
}
